//! The pre-packed-kernel synthesis search, preserved verbatim.
//!
//! This module keeps the original value-typed depth-first search — owned
//! [`State`] clones in a `HashSet` dead-set, a fresh candidate vector per
//! frame, per-successor allocation in
//! [`fire_unchecked`](ezrt_tpn::TimePetriNet::fire_unchecked) — exactly as
//! it behaved before the packed kernel landed. It exists for two reasons:
//!
//! 1. **Equivalence testing**: at [`PorLevel::Off`](crate::PorLevel::Off)
//!    the packed search must return byte-identical schedules and identical
//!    `states_visited` counts (see `tests/packed_equivalence.rs`). The
//!    reference implements no partial-order reduction at all — the
//!    simplest oracle — so it ignores [`SchedulerConfig::por`].
//! 2. **Benchmarking**: the old-versus-packed comparison in
//!    `ezrt-bench` quantifies what the packed kernel buys.
//!
//! Production callers use [`synthesize`](crate::synthesize).

use crate::config::{BranchOrdering, DelayMode, SchedulerConfig};
use crate::error::SynthesizeError;
use crate::schedule::{FeasibleSchedule, ScheduledFiring};
use crate::search::Synthesis;
use crate::search::{instance_deadline, role_rank, InstanceCounters};
use crate::stats::SearchStats;
use ezrt_compose::TaskNet;
use ezrt_tpn::{State, Time, TimeBound, TransitionId};
use std::collections::HashSet;
use std::time::Instant;

/// One DFS frame: a state, its ordered candidate firings, and a cursor.
struct Frame {
    state: State,
    candidates: Vec<(TransitionId, Time)>,
    next: usize,
    now: Time,
}

/// Synthesizes a pre-runtime schedule with the original value-typed
/// kernel. Semantically identical to [`synthesize`](crate::synthesize),
/// slower and allocation-heavy; see the module docs for why it is kept.
///
/// # Errors
///
/// Same failure modes as [`synthesize`](crate::synthesize).
pub fn synthesize_reference(
    tasknet: &TaskNet,
    config: &SchedulerConfig,
) -> Result<Synthesis, SynthesizeError> {
    let net = tasknet.net();
    let started = Instant::now();
    let mut stats = SearchStats {
        minimum_firings: tasknet.minimum_firing_count(),
        ..SearchStats::default()
    };
    let mut dead: HashSet<State> = HashSet::new();
    let mut counters = InstanceCounters::new(tasknet.spec().task_count());
    let mut missed_task_names: HashSet<String> = HashSet::new();

    // One owned state is (tokens + clocks + vec headers) on the heap; the
    // hash set stores the states inline.
    let state_payload_bytes = net.place_count() * std::mem::size_of::<u32>()
        + net.transition_count() * std::mem::size_of::<Time>();
    let dead_bytes = |dead: &HashSet<State>| {
        dead.capacity() * std::mem::size_of::<State>() + dead.len() * state_payload_bytes
    };

    let s0 = net.initial_state();
    stats.states_visited = 1;
    let root_candidates = candidates(tasknet, &s0, config, &counters);
    let mut frames = vec![Frame {
        state: s0,
        candidates: root_candidates,
        next: 0,
        now: 0,
    }];
    let mut path: Vec<ScheduledFiring> = Vec::new();
    let mut ticks: u64 = 0;

    loop {
        // Budget checks (time gated on the loop tick so pruning streaks
        // that visit no fresh states still hit it).
        ticks += 1;
        if stats.states_visited > config.max_states {
            stats.elapsed = started.elapsed();
            stats.dead_states = dead.len();
            stats.dead_set_bytes = dead_bytes(&dead);
            return Err(SynthesizeError::StateLimitExceeded {
                stats: Box::new(stats),
            });
        }
        if ticks.is_multiple_of(4096) && started.elapsed() > config.max_time {
            stats.elapsed = started.elapsed();
            stats.dead_states = dead.len();
            stats.dead_set_bytes = dead_bytes(&dead);
            return Err(SynthesizeError::TimeLimitExceeded {
                stats: Box::new(stats),
            });
        }

        let Some(frame) = frames.last_mut() else {
            stats.elapsed = started.elapsed();
            stats.schedule_length = 0;
            stats.dead_states = dead.len();
            stats.dead_set_bytes = dead_bytes(&dead);
            let mut missed: Vec<String> = missed_task_names.into_iter().collect();
            missed.sort();
            return Err(SynthesizeError::Infeasible {
                stats: Box::new(stats),
                missed_tasks: missed,
            });
        };

        // Frame exhausted: this state is dead; backtrack.
        if frame.next >= frame.candidates.len() {
            dead.insert(frame.state.clone());
            frames.pop();
            if let Some(firing) = path.pop() {
                counters.unapply(firing.role);
                stats.backtracks += 1;
            }
            continue;
        }

        let (transition, delay) = frame.candidates[frame.next];
        frame.next += 1;
        let now = frame.now + delay;
        let next_state = net.fire_unchecked(&frame.state, transition, delay);

        if dead.contains(&next_state) {
            stats.pruned_dead += 1;
            continue;
        }
        stats.states_visited += 1;

        if tasknet.has_deadline_miss(next_state.marking()) {
            stats.pruned_misses += 1;
            for task in tasknet.missed_tasks(next_state.marking()) {
                missed_task_names.insert(tasknet.spec().task(task).name().to_owned());
            }
            dead.insert(next_state);
            continue;
        }

        let role = tasknet.role(transition);
        let firing = ScheduledFiring {
            transition,
            role,
            delay,
            at: now,
        };

        if tasknet.is_final(next_state.marking()) {
            path.push(firing);
            stats.schedule_length = path.len();
            stats.elapsed = started.elapsed();
            stats.dead_states = dead.len();
            stats.dead_set_bytes = dead_bytes(&dead);
            return Ok(Synthesis {
                schedule: FeasibleSchedule::new(path),
                stats,
                replayed: false,
            });
        }

        counters.apply(role);
        let next_candidates = candidates(tasknet, &next_state, config, &counters);
        if next_candidates.is_empty() {
            // Non-final deadlock: dead end.
            counters.unapply(role);
            stats.deadlocks += 1;
            dead.insert(next_state);
            continue;
        }

        path.push(firing);
        frames.push(Frame {
            state: next_state,
            candidates: next_candidates,
            next: 0,
            now,
        });
    }
}

/// Generates the ordered candidate labels of a state: the fireable set
/// `FT(s)`, expanded to `(t, q)` pairs per the delay mode and sorted by
/// the branch ordering.
fn candidates(
    tasknet: &TaskNet,
    state: &State,
    config: &SchedulerConfig,
    counters: &InstanceCounters,
) -> Vec<(TransitionId, Time)> {
    let net = tasknet.net();
    let fireable = net.fireable(state);
    if fireable.is_empty() {
        return Vec::new();
    }

    let mut labels: Vec<(TransitionId, Time)> = Vec::with_capacity(fireable.len());
    for &t in &fireable {
        let (dlb, upper) = net
            .firing_domain(state, t)
            .expect("fireable transitions have firing domains");
        match config.delay_mode {
            DelayMode::Earliest => labels.push((t, dlb)),
            DelayMode::Corners => {
                labels.push((t, dlb));
                if let TimeBound::Finite(ub) = upper {
                    if ub > dlb {
                        labels.push((t, ub));
                    }
                }
            }
            DelayMode::Full => {
                if let TimeBound::Finite(ub) = upper {
                    labels.extend((dlb..=ub).map(|q| (t, q)));
                } else {
                    labels.push((t, dlb));
                }
            }
        }
    }

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
    labels
}
