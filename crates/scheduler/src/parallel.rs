//! Multi-core schedule synthesis: a work-stealing parallel DFS over the
//! shared sharded state kernel.
//!
//! [`synthesize_parallel`] distributes root-level DFS subtrees (one work
//! item per ordered root candidate) across
//! [`std::thread::scope`] workers. Every worker runs the sequential
//! [`synthesize`](crate::synthesize)'s own DFS core, monomorphised over a
//! shared store: states are interned into one shared [`ShardedArena`],
//! proven-dead states are memoized in one shared atomic bitset (so a
//! subtree one worker proves fruitless is pruned by every other worker
//! from then on), and an [`ExpansionRegistry`] lets a worker skip a state
//! a sibling already expanded under a no-larger sleep set.
//!
//! ## Work distribution: per-worker steal-half deques
//!
//! Each worker owns a deque of work items. The owner pushes and pops at
//! the back (LIFO — freshly donated, deeper items first, for locality);
//! a worker whose own deque runs dry becomes a **thief**: it scans the
//! other deques and steals **half** of a victim's items from the front —
//! the oldest, shallowest items, which root the largest unexplored
//! subtrees. The hot path (local pop, steal) only ever takes one deque's
//! lock; the process-wide mutex+condvar pair of the predecessor design
//! survives only as the *parking* protocol for workers that find every
//! deque empty, off the hot path entirely.
//!
//! Donation is unchanged from the predecessor protocol, just retargeted:
//! when a worker observes hungry peers, it splits its **shallowest**
//! unexplored sibling candidates off as new work items into its *own*
//! deque (shallow first, because shallow siblings root the largest
//! unexplored subtrees) and wakes the sleepers, who steal from it.
//!
//! ## Determinism contract
//!
//! * `jobs == 1` delegates to the sequential search outright and is
//!   **byte-identical** to [`synthesize`](crate::synthesize).
//! * `jobs > 1` races subtrees and the **first feasible schedule wins**;
//!   which one that is may vary run to run, and counters aggregate over
//!   all workers. Every winning schedule is re-checked against the
//!   specification through the independent
//!   [`validate`](crate::validate::check) oracle before it is returned
//!   (and callers are expected to replay it through
//!   [`replay`](crate::replay::replay), as `ezrt_core::Project` does).
//! * Infeasibility verdicts do not race: the space is exhausted by all
//!   workers together before `Infeasible` is reported.
//!
//! [`synthesize_parallel`] has a two-worker example.

use crate::config::SchedulerConfig;
use crate::error::SynthesizeError;
use crate::schedule::{FeasibleSchedule, ScheduledFiring};
use crate::search::{
    candidates, Dfs, Exit, Frame, InstanceCounters, MissedTasks, PorScratch, Store, Synthesis,
};
use crate::stats::SearchStats;
use crate::timeline::Timeline;
use crate::validate;
use ezrt_compose::TaskNet;
use ezrt_tpn::{
    ExpansionClaim, ExpansionRegistry, ShardedArena, StateId, Time, TimeBound, TransitionId,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// A concurrently updatable dead-state index over dense [`StateId`]s: one
/// bit per interned state, `fetch_or` inserts, geometric growth behind a
/// write lock that is only taken when the id range actually extends.
#[derive(Debug)]
pub(crate) struct AtomicDeadSet {
    words: RwLock<Vec<AtomicU64>>,
    len: AtomicUsize,
}

impl AtomicDeadSet {
    /// An empty set pre-sized for `bits` state ids (capped at 1 MiB of
    /// words — beyond that the geometric growth path takes over), so
    /// budget-bounded searches never pay a growth stall: state ids are
    /// bounded by the `max_states` abort, and a pre-sized set keeps every
    /// insert/contains on the read-lock fast path.
    pub(crate) fn with_bit_capacity(bits: usize) -> Self {
        let words = bits.div_ceil(64).min(128 * 1024);
        AtomicDeadSet {
            words: RwLock::new((0..words).map(|_| AtomicU64::new(0)).collect()),
            len: AtomicUsize::new(0),
        }
    }

    pub(crate) fn insert(&self, id: StateId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << bit;
        loop {
            {
                let words = self.words.read().expect("dead-set lock poisoned");
                if let Some(slot) = words.get(word) {
                    if slot.fetch_or(mask, Ordering::AcqRel) & mask == 0 {
                        self.len.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            }
            let mut words = self.words.write().expect("dead-set lock poisoned");
            if word >= words.len() {
                // Same amortized-doubling policy as the sequential DeadSet.
                let grown = (word + 1).max(words.len() * 2).max(64);
                let missing = grown - words.len();
                words.extend(std::iter::repeat_with(|| AtomicU64::new(0)).take(missing));
            }
        }
    }

    pub(crate) fn contains(&self, id: StateId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        let words = self.words.read().expect("dead-set lock poisoned");
        words
            .get(word)
            .is_some_and(|w| w.load(Ordering::Acquire) & (1u64 << bit) != 0)
    }

    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.words
            .read()
            .expect("dead-set lock poisoned")
            .capacity()
            * std::mem::size_of::<AtomicU64>()
    }
}

/// One unit of distributable work: an unexplored candidate edge out of an
/// already-reached state, plus everything a worker needs to resume the
/// DFS there (the packed parent state and the path prefix that reached
/// it).
/// Sibling items donated from the same frame share one packed-state and
/// one path-prefix allocation through `Arc`, so splitting a frame with
/// `K` unexplored candidates is `O(1)` in copies, not `O(K)`.
struct WorkItem {
    parent_id: StateId,
    parent_words: Arc<Vec<u32>>,
    label: (TransitionId, Time),
    /// Absolute time at the parent state.
    now: Time,
    /// The firings from `s0` to the parent, in order.
    path: Arc<Vec<ScheduledFiring>>,
    /// The sleep set the parent frame's candidates were generated under,
    /// shared by every sibling item. Deliberately *without* the
    /// equal-delay earlier-sibling additions an in-stack frame would get:
    /// a smaller sleep is always sound (it only filters less), and adding
    /// them would make a racing item defer its best candidate to a twin
    /// another worker may reach much later — measurably slower on
    /// feasible searches. Cross-item overlap is deduplicated by the
    /// shared [`ExpansionRegistry`] instead.
    sleep: Arc<Vec<u64>>,
}

/// How a finished search ended, before assembly into the public types.
enum Verdict {
    Feasible(FeasibleSchedule),
    StateLimit,
    TimeLimit,
}

/// The parking coordination state: how many workers are asleep waiting
/// for work, and whether the search space is globally exhausted. Touched
/// only when a worker finds every deque empty (or wakes sleepers after a
/// donation) — never on the local pop / steal hot path.
struct Coord {
    idle: usize,
    finished: bool,
}

/// Per-worker work-stealing deques. Owners push and pop at the back;
/// thieves steal half from the front (the oldest — and therefore
/// shallowest — items, which root the largest unexplored subtrees,
/// transplanting the shallowest-first donation policy into the steal).
///
/// `pending` tracks the total queued items across all deques; it is
/// updated while holding the lock of the deque being mutated, so it can
/// never underflow, and parking workers consult it (under the coord
/// lock) to close the sleep/wake race without scanning every deque.
struct StealDeques {
    deques: Vec<Mutex<VecDeque<WorkItem>>>,
    pending: AtomicUsize,
}

impl StealDeques {
    fn new(workers: usize) -> Self {
        StealDeques {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
        }
    }

    /// Pops from the back of `me`'s own deque.
    fn pop_local(&self, me: usize) -> Option<WorkItem> {
        let mut deque = self.deques[me].lock().expect("work deque poisoned");
        let item = deque.pop_back();
        if item.is_some() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        item
    }

    /// Scans the other deques (rotating from `me + 1`) and steals half of
    /// the first non-empty victim's items from the front. The first
    /// stolen item is returned to run immediately; the rest land in
    /// `me`'s deque.
    fn steal_into(&self, me: usize) -> Option<WorkItem> {
        let workers = self.deques.len();
        for k in 1..workers {
            let victim = (me + k) % workers;
            let mut taken: VecDeque<WorkItem> = {
                let mut deque = self.deques[victim].lock().expect("work deque poisoned");
                let available = deque.len();
                if available == 0 {
                    continue;
                }
                let take = available.div_ceil(2);
                self.pending.fetch_sub(take, Ordering::SeqCst);
                deque.drain(..take).collect()
            };
            let first = taken.pop_front().expect("stole at least one item");
            if !taken.is_empty() {
                let moved = taken.len();
                let mut mine = self.deques[me].lock().expect("work deque poisoned");
                mine.extend(taken);
                self.pending.fetch_add(moved, Ordering::SeqCst);
            }
            return Some(first);
        }
        None
    }

    /// Appends `items` to the back of `owner`'s deque.
    fn push(&self, owner: usize, items: Vec<WorkItem>) {
        let mut deque = self.deques[owner].lock().expect("work deque poisoned");
        let n = items.len();
        deque.extend(items);
        self.pending.fetch_add(n, Ordering::SeqCst);
    }
}

/// State shared by all workers of one parallel synthesis.
struct Shared<'a> {
    tasknet: &'a TaskNet,
    config: &'a SchedulerConfig,
    arena: ShardedArena,
    dead: AtomicDeadSet,
    /// Per-state expansion summaries (the sleep mask a state was expanded
    /// under), published so a worker landing on a state a sibling already
    /// expanded under a no-larger sleep set skips the whole subtree.
    /// Consulted only at `PorLevel::Stubborn`.
    registry: ExpansionRegistry,
    deques: StealDeques,
    coord: Mutex<Coord>,
    signal: Condvar,
    /// Workers currently looking for work or parked — the starvation
    /// signal busy workers poll to decide when to split their frontier.
    hungry: AtomicUsize,
    /// Steal-half transfers performed, aggregated into
    /// [`SearchStats::steals`].
    steals: AtomicUsize,
    /// Total states visited across workers (seeded with 1 for `s0`),
    /// checked against `config.max_states`.
    states: AtomicUsize,
    /// Raised on first-feasible, budget exhaustion, or space exhaustion;
    /// workers drain promptly once set.
    stop: AtomicBool,
    outcome: Mutex<Option<Verdict>>,
    started: Instant,
    jobs: usize,
}

impl Shared<'_> {
    /// Returns `me`'s next work item: own deque first, then a steal-half
    /// from a victim, then park until a donation or global exhaustion
    /// (all workers parked with zero pending items).
    fn next_item(&self, me: usize) -> Option<WorkItem> {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(item) = self.deques.pop_local(me) {
                return Some(item);
            }
            self.hungry.fetch_add(1, Ordering::SeqCst);
            let stolen = self.deques.steal_into(me);
            self.hungry.fetch_sub(1, Ordering::SeqCst);
            if let Some(item) = stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(item);
            }
            // Park. The pending re-check under the coord lock closes the
            // race with a concurrent push: a pusher bumps `pending`
            // before taking the coord lock to wake sleepers, so either
            // this worker sees pending > 0 here and retries the steal, or
            // it is already in `wait` when the pusher notifies.
            let mut coord = self.coord.lock().expect("coordination lock poisoned");
            if self.stop.load(Ordering::Acquire) || coord.finished {
                return None;
            }
            if self.deques.pending.load(Ordering::SeqCst) > 0 {
                continue;
            }
            coord.idle += 1;
            if coord.idle == self.jobs {
                coord.finished = true;
                self.signal.notify_all();
                return None;
            }
            self.hungry.fetch_add(1, Ordering::SeqCst);
            // Off the hot path by construction: a worker only gets here
            // with every deque empty.
            crate::obs::engine_metrics().donation_stalls.inc();
            coord = self.signal.wait(coord).expect("coordination lock poisoned");
            self.hungry.fetch_sub(1, Ordering::SeqCst);
            coord.idle -= 1;
        }
    }

    /// Pushes donated items into `owner`'s own deque and wakes any parked
    /// workers so they can steal them.
    fn push_work(&self, owner: usize, items: Vec<WorkItem>) {
        if items.is_empty() {
            return;
        }
        self.deques.push(owner, items);
        // Taking (and dropping) the coord lock orders this wakeup after
        // any in-flight parker's pending re-check; see `next_item`.
        let coord = self.coord.lock().expect("coordination lock poisoned");
        let sleepers = coord.idle > 0;
        drop(coord);
        if sleepers {
            self.signal.notify_all();
        }
    }

    /// Records a verdict and raises the stop flag. A feasible schedule
    /// overrides a racing budget verdict; among feasible schedules the
    /// first recorded wins.
    fn finish(&self, verdict: Verdict) {
        {
            let mut slot = self.outcome.lock().expect("outcome slot poisoned");
            let replace = matches!(
                (&*slot, &verdict),
                (None, _)
                    | (
                        Some(Verdict::StateLimit | Verdict::TimeLimit),
                        Verdict::Feasible(_)
                    )
            );
            if replace {
                *slot = Some(verdict);
            }
        }
        // Take the coord lock around the stop store so a worker that just
        // checked the flag cannot fall asleep and miss the wakeup.
        let coord = self.coord.lock().expect("coordination lock poisoned");
        self.stop.store(true, Ordering::Release);
        drop(coord);
        self.signal.notify_all();
    }
}

/// Unwind guard: if a worker dies panicking (a kernel bug surfacing as an
/// assert), peers parked in [`Shared::next_item`]'s condvar wait would
/// otherwise never be woken — the dead worker still counts as busy, so
/// `idle` can never reach `jobs` and `std::thread::scope` would block
/// joining them forever. On a panicking drop this raises the stop flag
/// (under the coord lock, same lost-wakeup discipline as
/// [`Shared::finish`]) and wakes everyone, letting the panic propagate
/// out of the scope as a crash with its diagnostic.
struct PanicGuard<'a, 'b>(&'a Shared<'b>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A poisoned coord mutex means the panicker held it — waiters
            // then unwind out of `wait` on their own; entering anyway is
            // still the right wake-up protocol.
            let guard = match self.0.coord.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            self.0.stop.store(true, Ordering::Release);
            drop(guard);
            self.0.signal.notify_all();
        }
    }
}

/// One worker's view of the shared search state: the [`Store`] the DFS
/// core runs on in parallel. Frames keep their packed state words and
/// the worker fires into its own successor buffer, so it touches shared
/// memory only to intern a successor.
struct SharedStore<'s, 'a> {
    shared: &'s Shared<'a>,
    successor: Vec<u32>,
    me: usize,
    /// The global visited count as of this worker's latest visit.
    seen: usize,
}

impl Store for SharedStore<'_, '_> {
    const SHARED: bool = true;

    fn fire(
        &mut self,
        parent: &Frame,
        t: TransitionId,
        q: Time,
        enabled: &mut Vec<u64>,
    ) -> StateId {
        let net = self.shared.tasknet.net();
        net.fire_into(
            &parent.words,
            &parent.enabled,
            t,
            q,
            &mut self.successor,
            enabled,
        );
        self.shared.arena.intern(&self.successor).0
    }

    fn successor(&self, _id: StateId) -> &[u32] {
        &self.successor
    }

    fn keep(&self, frame: &mut Frame) {
        frame.words.clone_from(&self.successor);
    }

    fn is_dead(&self, id: StateId) -> bool {
        self.shared.dead.contains(id)
    }

    fn mark_dead(&mut self, id: StateId) {
        self.shared.dead.insert(id);
    }

    fn visit(&mut self) {
        self.seen = self.shared.states.fetch_add(1, Ordering::Relaxed) + 1;
    }

    fn visited(&self) -> usize {
        self.seen
    }

    fn covered(&self, id: StateId, sleep: &[u64]) -> bool {
        self.shared.registry.claim(id, sleep) == ExpansionClaim::Covered
    }

    fn poll(
        &mut self,
        ticks: u64,
        frames: &mut [Frame],
        path: &[ScheduledFiring],
        base: usize,
    ) -> bool {
        if self.shared.stop.load(Ordering::Acquire) {
            return true;
        }
        if ticks.is_multiple_of(64) && self.shared.hungry.load(Ordering::Relaxed) > 0 {
            donate(self.shared, self.me, frames, path, base);
        }
        false
    }
}

/// Synthesizes a pre-runtime schedule with
/// [`config.parallelism`](SchedulerConfig::parallelism) worker threads
/// sharing one interning arena and one dead-state index.
///
/// With one job this delegates to the sequential
/// [`synthesize`](crate::synthesize) and is byte-identical to it. With
/// more jobs the first feasible schedule found wins (see the module docs
/// for the determinism contract); the winner is always re-checked through
/// the independent [`validate`](crate::validate::check) oracle.
///
/// # Errors
///
/// Same failure modes as [`synthesize`](crate::synthesize); counters in
/// the returned [`SearchStats`] aggregate over all workers.
///
/// # Panics
///
/// Panics if a returned schedule fails the independent validation oracle
/// — that means a kernel bug, never a property of the input.
///
/// # Examples
///
/// ```
/// use ezrt_compose::translate;
/// use ezrt_scheduler::{synthesize_parallel, Parallelism, SchedulerConfig};
/// use ezrt_spec::corpus::figure3_spec;
///
/// # fn main() -> Result<(), ezrt_scheduler::SynthesizeError> {
/// let config = SchedulerConfig {
///     parallelism: Parallelism::new(2),
///     ..SchedulerConfig::default()
/// };
/// let synthesis = synthesize_parallel(&translate(&figure3_spec()), &config)?;
/// assert!(synthesis.schedule.is_feasible());
/// assert_eq!(synthesis.stats.jobs, 2);
/// # Ok(())
/// # }
/// ```
pub fn synthesize_parallel(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
) -> Result<Synthesis, SynthesizeError> {
    if config.parallelism.is_sequential() {
        // The sequential path records its own run metrics.
        return crate::search::synthesize(tasknet, config);
    }
    let _span = ezrt_obs::span("parallel-search");
    let result = synthesize_parallel_inner(tasknet, config);
    match &result {
        Ok(synthesis) => crate::obs::record_search(&synthesis.stats),
        Err(error) => crate::obs::record_search(error.stats()),
    }
    result
}

fn synthesize_parallel_inner(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
) -> Result<Synthesis, SynthesizeError> {
    let jobs = config.parallelism.jobs();
    let net = tasknet.net();
    let started = Instant::now();
    let task_count = tasknet.spec().task_count();

    let arena = ShardedArena::new(net.layout(), jobs);
    let mut s0_words = vec![0; net.layout().words()];
    net.write_initial_packed(&mut s0_words);
    let (s0, _) = arena.intern(&s0_words);
    let mut s0_enabled = Vec::new();
    net.enabled_into(&s0_words, &mut s0_enabled);

    // Root-level distribution: one work item per ordered root candidate.
    let mut domains: Vec<(TransitionId, Time, TimeBound)> = Vec::new();
    let mut root_labels: Vec<(TransitionId, Time)> = Vec::new();
    let mut root_scratch = PorScratch::new();
    candidates(
        tasknet,
        &s0_words,
        &s0_enabled,
        config,
        &InstanceCounters::new(task_count),
        &[],
        true,
        &mut root_scratch,
        &mut domains,
        &mut root_labels,
    );

    let s0_words = Arc::new(s0_words);
    let empty_path = Arc::new(Vec::new());
    // Id-block allocation leaves at most one partially issued block per
    // shard, so the dead-set (indexed by id, not by state count) is
    // pre-sized for the budget plus that bounded slack.
    let id_slack = arena.shard_count() * ShardedArena::ID_BLOCK;
    let shared = Shared {
        tasknet,
        config,
        arena,
        dead: AtomicDeadSet::with_bit_capacity(config.max_states + id_slack),
        registry: ExpansionRegistry::new(jobs * 4),
        deques: StealDeques::new(jobs),
        coord: Mutex::new(Coord {
            idle: 0,
            finished: root_labels.is_empty(),
        }),
        signal: Condvar::new(),
        hungry: AtomicUsize::new(0),
        steals: AtomicUsize::new(0),
        states: AtomicUsize::new(1),
        stop: AtomicBool::new(false),
        outcome: Mutex::new(None),
        started,
        jobs,
    };
    // Seed the deques round-robin so every worker starts with local work
    // (in candidate order, so worker 0 leads with the heuristically best
    // root and no deque begins empty while another holds everything).
    let root_sleep: Arc<Vec<u64>> = Arc::new(Vec::new());
    for (i, &label) in root_labels.iter().enumerate() {
        shared.deques.push(
            i % jobs,
            vec![WorkItem {
                parent_id: s0,
                parent_words: Arc::clone(&s0_words),
                label,
                now: 0,
                path: Arc::clone(&empty_path),
                sleep: Arc::clone(&root_sleep),
            }],
        );
    }

    let locals: Vec<(SearchStats, MissedTasks)> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..jobs)
            .map(|me| scope.spawn(move || worker(shared, me)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("synthesis worker panicked"))
            .collect()
    });

    // Each worker's own counters count it as one job, so their sum
    // gives `jobs`.
    let mut stats = SearchStats {
        states_visited: shared.states.load(Ordering::Relaxed),
        minimum_firings: tasknet.minimum_firing_count(),
        dead_states: shared.dead.len(),
        dead_set_bytes: shared.dead.resident_bytes()
            + shared.arena.resident_bytes()
            + shared.registry.resident_bytes(),
        elapsed: started.elapsed(),
        jobs: 0,
        steals: shared.steals.load(Ordering::Relaxed),
        por_stubborn_skips: root_scratch.stubborn_skips,
        por_sleep_skips: root_scratch.sleep_skips,
        ..SearchStats::default()
    };
    let mut missed = MissedTasks::new(task_count);
    for (local, local_missed) in &locals {
        stats.absorb(local);
        missed.merge(local_missed);
    }

    let outcome = shared.outcome.into_inner().expect("outcome slot poisoned");
    match outcome {
        Some(Verdict::Feasible(schedule)) => {
            stats.schedule_length = schedule.firings().len();
            let timeline = Timeline::from_schedule(tasknet, &schedule);
            let violations = validate::check(tasknet.spec(), &timeline);
            assert!(
                violations.is_empty(),
                "parallel synthesis produced a schedule the independent validator rejects \
                 (kernel bug): {violations:?}"
            );
            Ok(Synthesis {
                schedule,
                stats,
                replayed: false,
            })
        }
        Some(Verdict::StateLimit) => Err(SynthesizeError::StateLimitExceeded {
            stats: Box::new(stats),
        }),
        Some(Verdict::TimeLimit) => Err(SynthesizeError::TimeLimitExceeded {
            stats: Box::new(stats),
        }),
        None => Err(SynthesizeError::Infeasible {
            missed_tasks: missed.sorted_names(tasknet),
            stats: Box::new(stats),
        }),
    }
}

/// One worker: pop or steal work items and run the DFS core under each
/// until the shared flag stops it; returns the worker's counters.
fn worker(shared: &Shared<'_>, me: usize) -> (SearchStats, MissedTasks) {
    let _panic_guard = PanicGuard(shared);
    let store = SharedStore {
        shared,
        successor: vec![0; shared.arena.layout().words()],
        me,
        seen: 0,
    };
    let mut dfs = Dfs::new(shared.tasknet, shared.config, shared.started, store);
    while let Some(item) = shared.next_item(me) {
        // The item's parent state is the root; its one label is the only
        // candidate, and the siblings' dead-marking belongs to whoever
        // owns the other items. Items carry no enabled set: the root
        // rescans its own.
        let root = dfs.root(item.parent_id, item.now, &item.path);
        root.words.extend_from_slice(&item.parent_words);
        shared
            .tasknet
            .net()
            .enabled_into(&root.words, &mut root.enabled);
        root.candidates.push(item.label);
        root.sleep.extend_from_slice(&item.sleep);
        root.owned = false;
        match dfs.run() {
            Exit::Exhausted => continue,
            Exit::Feasible => {
                let path = std::mem::take(&mut dfs.path);
                shared.finish(Verdict::Feasible(FeasibleSchedule::new(path)));
            }
            Exit::StateLimit => shared.finish(Verdict::StateLimit),
            Exit::TimeLimit => shared.finish(Verdict::TimeLimit),
            Exit::Stopped => {}
        }
        break;
    }
    (dfs.stats(), dfs.missed)
}

/// Splits unexplored sibling candidates off the donor's stack into the
/// donor's **own** deque (parked thieves steal them from its front): the
/// shallowest donatable frame goes first (it roots the largest unexplored
/// subtrees); the deepest frame keeps one candidate so the donor itself
/// never starves.
fn donate(
    shared: &Shared<'_>,
    me: usize,
    frames: &mut [Frame],
    path: &[ScheduledFiring],
    base: usize,
) {
    let depth = frames.len();
    let mut donated: Vec<WorkItem> = Vec::new();
    for (i, frame) in frames.iter_mut().enumerate() {
        let keep = if i + 1 == depth { 1 } else { 0 };
        let remaining = frame.candidates.len().saturating_sub(frame.next);
        if remaining <= keep {
            continue;
        }
        let start = frame.next + keep;
        // One shared copy of the parent state, prefix and sleep set for
        // all sibling items.
        let parent_words = Arc::new(frame.words.clone());
        let prefix = Arc::new(path[..base + i].to_vec());
        let sleep = Arc::new(frame.sleep.clone());
        for &label in &frame.candidates[start..] {
            donated.push(WorkItem {
                parent_id: frame.state,
                parent_words: Arc::clone(&parent_words),
                label,
                now: frame.now,
                path: Arc::clone(&prefix),
                sleep: Arc::clone(&sleep),
            });
        }
        frame.candidates.truncate(start);
        // The proof obligation for this state is now split across items;
        // nobody may claim it dead from local exhaustion alone.
        frame.owned = false;
        break;
    }
    if !donated.is_empty() {
        shared.push_work(me, donated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Parallelism;
    use crate::search::synthesize;
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, small_control};
    use ezrt_spec::SpecBuilder;

    fn parallel_config(jobs: usize) -> SchedulerConfig {
        SchedulerConfig {
            parallelism: Parallelism::new(jobs),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn atomic_dead_set_inserts_and_grows() {
        let dead = AtomicDeadSet::with_bit_capacity(0);
        assert!(!dead.contains(StateId::from_index(100)));
        dead.insert(StateId::from_index(100));
        dead.insert(StateId::from_index(0));
        dead.insert(StateId::from_index(100));
        assert!(dead.contains(StateId::from_index(100)));
        assert!(dead.contains(StateId::from_index(0)));
        assert!(!dead.contains(StateId::from_index(63)));
        assert_eq!(dead.len(), 2);
        // Sparse high-id insert grows geometrically and stays readable.
        dead.insert(StateId::from_index(1 << 20));
        assert!(dead.contains(StateId::from_index(1 << 20)));
        assert_eq!(dead.len(), 3);
        assert!(dead.resident_bytes() >= (1 << 20) / 8);
    }

    #[test]
    fn atomic_dead_set_is_race_safe() {
        let dead = AtomicDeadSet::with_bit_capacity(0);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let dead = &dead;
                scope.spawn(move || {
                    for i in 0..2000usize {
                        // Overlapping ranges: every id inserted by two workers.
                        dead.insert(StateId::from_index(i + (worker % 2) * 1000));
                    }
                });
            }
        });
        assert_eq!(dead.len(), 3000);
        for i in 0..3000 {
            assert!(dead.contains(StateId::from_index(i)));
        }
    }

    #[test]
    fn one_job_is_byte_identical_to_sequential() {
        for spec in [figure3_spec(), figure8_spec(), small_control()] {
            let tasknet = translate(&spec);
            let config = parallel_config(1);
            let parallel = synthesize_parallel(&tasknet, &config).expect("feasible");
            let sequential = synthesize(&tasknet, &config).expect("feasible");
            assert_eq!(parallel.schedule, sequential.schedule, "{}", spec.name());
            // Everything but wall time must match exactly.
            let normalize = |mut stats: SearchStats| {
                stats.elapsed = std::time::Duration::ZERO;
                stats
            };
            assert_eq!(
                normalize(parallel.stats),
                normalize(sequential.stats),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn corpus_is_solved_at_two_and_four_jobs() {
        for spec in [
            figure3_spec(),
            figure4_spec(),
            figure8_spec(),
            small_control(),
        ] {
            for jobs in [2, 4] {
                let tasknet = translate(&spec);
                let synthesis =
                    synthesize_parallel(&tasknet, &parallel_config(jobs)).expect("feasible");
                assert!(synthesis.schedule.is_feasible());
                assert_eq!(synthesis.stats.jobs, jobs);
                assert!(synthesis.stats.states_visited >= synthesis.schedule.firings().len());
                // The independent validator ran inside synthesize_parallel;
                // re-run it here so the test fails loudly if that check is
                // ever removed.
                let timeline = Timeline::from_schedule(&tasknet, &synthesis.schedule);
                assert!(
                    validate::check(tasknet.spec(), &timeline).is_empty(),
                    "{} at {jobs} jobs",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn infeasible_sets_are_detected_in_parallel() {
        let spec = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        for jobs in [2, 4] {
            let err = synthesize_parallel(&tasknet, &parallel_config(jobs)).unwrap_err();
            match err {
                SynthesizeError::Infeasible { missed_tasks, .. } => {
                    assert!(!missed_tasks.is_empty(), "{jobs} jobs")
                }
                other => panic!("expected infeasible at {jobs} jobs, got {other}"),
            }
        }
    }

    #[test]
    fn state_limit_aborts_parallel_search() {
        let tasknet = translate(&figure8_spec());
        let config = SchedulerConfig {
            max_states: 5,
            ..parallel_config(2)
        };
        let err = synthesize_parallel(&tasknet, &config).unwrap_err();
        assert!(matches!(err, SynthesizeError::StateLimitExceeded { .. }));
    }

    #[test]
    fn parallel_stats_aggregate_workers() {
        let tasknet = translate(&small_control());
        let synthesis = synthesize_parallel(&tasknet, &parallel_config(2)).expect("feasible");
        assert_eq!(synthesis.stats.jobs, 2);
        assert!(synthesis.stats.states_visited > 0);
        assert!(synthesis.stats.dead_set_bytes > 0);
        assert!(synthesis.stats.schedule_length > 0);
        assert_eq!(
            synthesis.stats.schedule_length,
            synthesis.schedule.firings().len()
        );
    }
}
