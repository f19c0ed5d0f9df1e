//! The net-level replay oracle.
//!
//! [`validate`](crate::validate) re-checks a timeline against the
//! *specification*; [`replay`] re-checks a firing sequence against the
//! *net semantics*: every firing must be a member of `FT(s)` with a delay
//! inside `FD_s(t)`, no state on the run may mark a deadline-miss place,
//! and the run must reach the desired final marking `MF`. It walks the
//! run on the net's packed kernel
//! ([`fire_into`](ezrt_tpn::TimePetriNet::fire_into)) with two
//! state buffers and two enabled sets, swapped each step. Each step
//! tests only the scheduled label: one
//! [`fireable_domain`](ezrt_tpn::TimePetriNet::fireable_domain) call,
//! two passes over the enabled clocks, answers whether the transition is
//! in `FT(s)` and with which domain, without building the rest of the
//! set. It shares no code with the DFS's carried bounds. Debug builds
//! and the unit tests check every step against the full clock-bounds
//! walk ([`clock_bounds_into`](ezrt_tpn::TimePetriNet::clock_bounds_into)
//! and [`fireable_domains_into`](ezrt_tpn::TimePetriNet::fireable_domains_into)).
//! A linear run revisits nothing, so no state is keyed or interned, and
//! no step allocates.
//!
//! This is the workspace's only replay. It checks each synthesized result
//! once (`ezrt_core::Project`), re-establishes decoded disk-cache entries,
//! and is the verbatim fast path of
//! [`synthesize_seeded`](crate::synthesize_seeded): a warm-start seed that
//! replays to `MF` *is* the result.

use crate::schedule::ScheduledFiring;
use ezrt_compose::TaskNet;
use ezrt_tpn::{Time, TimeBound, TransitionId};
use std::fmt;

/// Why a replay rejected a firing sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A scheduled transition was not fireable in the state it was fired
    /// from (including transitions the net does not have).
    NotFireable {
        /// Position of the offending firing in the schedule.
        step: usize,
        /// The transition that was not fireable.
        transition: TransitionId,
    },
    /// A scheduled delay fell outside the firing domain.
    DelayOutOfDomain {
        /// Position of the offending firing in the schedule.
        step: usize,
        /// The transition whose delay was illegal.
        transition: TransitionId,
        /// The scheduled delay.
        delay: Time,
    },
    /// A firing reached a state that marks a deadline-miss place.
    DeadlineMiss {
        /// Position of the offending firing in the schedule.
        step: usize,
    },
    /// The run ended without reaching the final marking `MF`.
    NotFinal,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NotFireable { step, transition } => {
                write!(f, "step {step}: {transition} is not fireable")
            }
            ReplayError::DelayOutOfDomain {
                step,
                transition,
                delay,
            } => write!(
                f,
                "step {step}: delay {delay} of {transition} is outside its firing domain"
            ),
            ReplayError::DeadlineMiss { step } => {
                write!(f, "step {step}: a deadline-miss place is marked")
            }
            ReplayError::NotFinal => write!(f, "run did not end in the final marking MF"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Statistics of a successful replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Number of firings replayed: the prefix up to the first state
    /// marking `MF`. A synthesized schedule ends there, so this is its
    /// full length.
    pub firings: usize,
    /// The makespan of the replayed run (sum of delays).
    pub makespan: Time,
}

/// Replays `firings` on the translated net from the initial state,
/// checking each step against `FT(s)` and `FD_s(t)` and each reached
/// state for deadline misses, and stopping at the first state that marks
/// `MF`; firings after that point are not replayed
/// ([`ReplayReport::firings`] counts the ones that were).
///
/// Accepts a [`FeasibleSchedule`](crate::FeasibleSchedule) or any slice
/// of [`ScheduledFiring`]s; only transitions and delays are read, so a
/// seed recorded against another version of the spec replays too.
///
/// An accepted run is traced as one `replay` span. A rejected run's span
/// is discarded, leaving its time to the caller's span: a warm-start
/// seed that fails here is search work, not a replay of a result.
///
/// # Errors
///
/// Returns the first [`ReplayError`] encountered; schedules produced by
/// [`synthesize`](crate::synthesize) always replay cleanly.
///
/// # Examples
///
/// ```
/// use ezrt_compose::translate;
/// use ezrt_scheduler::replay::replay;
/// use ezrt_scheduler::{synthesize, SchedulerConfig};
/// use ezrt_spec::corpus::small_control;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasknet = translate(&small_control());
/// let synthesis = synthesize(&tasknet, &SchedulerConfig::default())?;
/// let report = replay(&tasknet, &synthesis.schedule)?;
/// assert_eq!(report.firings, synthesis.schedule.firings().len());
/// assert_eq!(report.makespan, synthesis.schedule.makespan());
/// # Ok(())
/// # }
/// ```
pub fn replay<F>(tasknet: &TaskNet, firings: &F) -> Result<ReplayReport, ReplayError>
where
    F: AsRef<[ScheduledFiring]> + ?Sized,
{
    let span = ezrt_obs::span("replay");
    let result = walk(tasknet, firings.as_ref());
    if result.is_err() {
        span.discard();
    }
    result
}

fn walk(tasknet: &TaskNet, firings: &[ScheduledFiring]) -> Result<ReplayReport, ReplayError> {
    let net = tasknet.net();
    let mut state = vec![0; net.layout().words()];
    let mut next = state.clone();
    net.write_initial_packed(&mut state);
    let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
    net.enabled_into(&state, &mut enabled);
    let mut makespan: Time = 0;

    for (step, firing) in firings.iter().enumerate() {
        let domain = net.fireable_domain(&state, &enabled, firing.transition);
        #[cfg(any(test, debug_assertions))]
        assert_domain_matches_walk(net, &state, &enabled, firing.transition, domain);
        let Some((dlb, upper)) = domain else {
            return Err(ReplayError::NotFireable {
                step,
                transition: firing.transition,
            });
        };
        if firing.delay < dlb || TimeBound::Finite(firing.delay) > upper {
            return Err(ReplayError::DelayOutOfDomain {
                step,
                transition: firing.transition,
                delay: firing.delay,
            });
        }
        net.fire_into(
            &state,
            &enabled,
            firing.transition,
            firing.delay,
            &mut next,
            &mut next_enabled,
        );
        std::mem::swap(&mut state, &mut next);
        std::mem::swap(&mut enabled, &mut next_enabled);
        makespan += firing.delay;
        // The run stops at its first miss, so every state it fires from
        // is miss-free.
        if tasknet.fired_into_miss(firing.transition, &state) {
            return Err(ReplayError::DeadlineMiss { step });
        }
        if tasknet.is_final_packed(&state) {
            return Ok(ReplayReport {
                firings: step + 1,
                makespan,
            });
        }
    }
    Err(ReplayError::NotFinal)
}

/// Checks one replay step's firing domain of `t`, from
/// [`TimePetriNet::fireable_domain`], against the full walk of the
/// state's clocks ([`TimePetriNet::clock_bounds_into`], then
/// [`TimePetriNet::fireable_domains_into`]). Debug builds and the unit
/// tests run it on every step.
#[cfg(any(test, debug_assertions))]
fn assert_domain_matches_walk(
    net: &ezrt_tpn::TimePetriNet,
    state: &[u32],
    enabled: &[u64],
    t: TransitionId,
    domain: Option<(Time, TimeBound)>,
) {
    let (mut bounds, mut walked) = (ezrt_tpn::ClockBounds::default(), Vec::new());
    net.clock_bounds_into(state, enabled, &mut bounds);
    net.fireable_domains_into(&bounds, &mut walked);
    let expected = walked
        .iter()
        .find(|&&(u, _, _)| u == t)
        .map(|&(_, dlb, upper)| (dlb, upper));
    assert_eq!(
        domain, expected,
        "the firing domain of {t} drifted from the walk"
    );
    #[cfg(test)]
    tests::DOMAIN_CHECKS.with(|checks| checks.set(checks.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, FeasibleSchedule, SchedulerConfig};
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure8_spec, mine_pump, small_control};
    use ezrt_tpn::reachability::Explorer;
    use ezrt_tpn::ClockBounds;
    use std::cell::Cell;

    thread_local! {
        /// Replay steps [`assert_domain_matches_walk`] checked on this
        /// thread.
        pub(super) static DOMAIN_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn synthesized_schedules_replay_cleanly() {
        for spec in [figure3_spec(), figure8_spec(), small_control(), mine_pump()] {
            let tasknet = translate(&spec);
            let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
            let report = replay(&tasknet, &synthesis.schedule)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert_eq!(report.firings, synthesis.schedule.firings().len());
            assert_eq!(report.makespan, synthesis.schedule.makespan());
        }
    }

    #[test]
    fn truncated_schedules_are_rejected_as_not_final() {
        let tasknet = translate(&small_control());
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let mut firings = synthesis.schedule.firings().to_vec();
        firings.pop();
        let truncated = FeasibleSchedule::from_firings(firings);
        assert_eq!(replay(&tasknet, &truncated), Err(ReplayError::NotFinal));
        assert_eq!(replay(&tasknet, &[]), Err(ReplayError::NotFinal));
    }

    #[test]
    fn corrupted_firings_are_rejected() {
        let tasknet = translate(&small_control());
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let firings = synthesis.schedule.firings();

        // An out-of-domain delay on the first firing.
        let mut bad_delay = firings.to_vec();
        bad_delay[0].delay += 1_000_000;
        let err = replay(&tasknet, &bad_delay).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::DelayOutOfDomain { step: 0, .. }
                    | ReplayError::NotFireable { step: 0, .. }
            ),
            "{err}"
        );

        // Re-firing the first transition twice in a row.
        let mut repeated = firings.to_vec();
        repeated[1] = repeated[0];
        let err = replay(&tasknet, &repeated).unwrap_err();
        assert!(
            matches!(err, ReplayError::NotFireable { step: 1, .. }),
            "{err}"
        );

        // A transition the net does not have — a seed recorded for a
        // bigger spec — is rejected without panicking.
        let mut foreign = firings.to_vec();
        foreign[0].transition = TransitionId::from_index(tasknet.net().transition_count() + 3);
        assert!(matches!(
            replay(&tasknet, &foreign),
            Err(ReplayError::NotFireable { step: 0, .. })
        ));
    }

    /// Every step of the pump's schedule is checked against the full
    /// clock-bounds walk.
    #[test]
    fn every_step_is_checked_against_the_walk() {
        let tasknet = translate(&mine_pump());
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let before = DOMAIN_CHECKS.with(Cell::get);
        replay(&tasknet, &synthesis.schedule).expect("replays");
        assert_eq!(
            DOMAIN_CHECKS.with(Cell::get) - before,
            synthesis.schedule.firings().len()
        );
    }

    /// The first step of `firings` at which `bad` can stand in for the
    /// scheduled firing, as `(step, bad firing)`: walks the schedule and
    /// asks `bad` for a replacement at each state, given the state's
    /// words and enabled set.
    fn first_bad_step(
        tasknet: &TaskNet,
        firings: &[ScheduledFiring],
        mut bad: impl FnMut(&[u32], &[u64]) -> Option<(TransitionId, Time)>,
    ) -> Option<(usize, ScheduledFiring)> {
        let net = tasknet.net();
        let mut state = vec![0; net.layout().words()];
        let mut next = state.clone();
        net.write_initial_packed(&mut state);
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        net.enabled_into(&state, &mut enabled);
        for (step, firing) in firings.iter().enumerate() {
            if let Some((transition, delay)) = bad(&state, &enabled) {
                let bad = ScheduledFiring {
                    transition,
                    role: tasknet.role(transition),
                    delay,
                    at: firing.at - firing.delay + delay,
                };
                return Some((step, bad));
            }
            let (t, q) = (firing.transition, firing.delay);
            net.fire_into(&state, &enabled, t, q, &mut next, &mut next_enabled);
            std::mem::swap(&mut state, &mut next);
            std::mem::swap(&mut enabled, &mut next_enabled);
        }
        None
    }

    /// Each way a firing can leave `FT(s)` or `FD_s(t)` is rejected at
    /// its step, with its error: a disabled transition, an enabled one
    /// cut by urgency (`DLB > min DUB`) or by priority, and a fireable one
    /// fired before `DLB` or after `min DUB`. Each case is planted at the
    /// first step of a synthesized schedule where it can occur.
    #[test]
    fn each_illegal_firing_is_rejected_at_its_step() {
        let tasknet = translate(&mine_pump());
        let net = tasknet.net();
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let firings = synthesis.schedule.firings();
        let layout = net.layout();
        let dlb = |state: &[u32], t: TransitionId| {
            net.transition(t)
                .interval()
                .dynamic_lower_bound(layout.clock(state, t))
        };
        let walk = |state: &[u32], enabled: &[u64]| {
            let (mut bounds, mut domains) = (ClockBounds::default(), Vec::new());
            net.clock_bounds_into(state, enabled, &mut bounds);
            net.fireable_domains_into(&bounds, &mut domains);
            (bounds.min_dub(), domains)
        };
        let members = |enabled: &[u64], wanted: bool| {
            (0..net.transition_count())
                .map(TransitionId::from_index)
                .filter(move |t| ezrt_tpn::por::test_bit(enabled, t.index()) == wanted)
                .collect::<Vec<_>>()
        };
        let disabled = first_bad_step(&tasknet, firings, |_, enabled| {
            Some((*members(enabled, false).first()?, 0))
        });
        let urgency = first_bad_step(&tasknet, firings, |state, enabled| {
            let (min_dub, _) = walk(state, enabled);
            let t = members(enabled, true)
                .into_iter()
                .find(|&t| TimeBound::Finite(dlb(state, t)) > min_dub)?;
            Some((t, dlb(state, t)))
        });
        let priority = first_bad_step(&tasknet, firings, |state, enabled| {
            let (min_dub, domains) = walk(state, enabled);
            let t = members(enabled, true).into_iter().find(|&t| {
                TimeBound::Finite(dlb(state, t)) <= min_dub
                    && domains.iter().all(|&(u, _, _)| u != t)
            })?;
            Some((t, dlb(state, t)))
        });
        let early = first_bad_step(&tasknet, firings, |state, enabled| {
            let (_, domains) = walk(state, enabled);
            let &(t, dlb, _) = domains.iter().find(|&&(_, dlb, _)| dlb > 0)?;
            Some((t, dlb - 1))
        });
        let late = first_bad_step(&tasknet, firings, |state, enabled| {
            let (_, domains) = walk(state, enabled);
            match *domains.first()? {
                (t, _, TimeBound::Finite(upper)) => Some((t, upper + 1)),
                (_, _, TimeBound::Infinite) => None,
            }
        });

        // Whether the planted firing is fireable, with a delay outside
        // its domain.
        let cases = [
            ("disabled", disabled, false),
            ("urgency", urgency, false),
            ("priority", priority, false),
            ("early", early, true),
            ("late", late, true),
        ];
        for (case, planted, in_ft) in cases {
            let (step, bad) = planted.unwrap_or_else(|| panic!("no {case} case on the pump"));
            let mut run = firings[..step].to_vec();
            run.push(bad);
            let transition = bad.transition;
            let expected = if in_ft {
                ReplayError::DelayOutOfDomain {
                    step,
                    transition,
                    delay: bad.delay,
                }
            } else {
                ReplayError::NotFireable { step, transition }
            };
            assert_eq!(replay(&tasknet, &run), Err(expected), "{case}");
        }
    }

    #[test]
    fn replay_stops_at_the_final_marking() {
        let tasknet = translate(&small_control());
        let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
        let mut firings = synthesis.schedule.firings().to_vec();
        firings.push(firings[0]);
        let report = replay(&tasknet, &firings).expect("the schedule prefix reaches MF");
        assert_eq!(report.firings, firings.len() - 1);
    }

    #[test]
    fn a_run_into_a_deadline_miss_is_rejected() {
        use ezrt_spec::SpecBuilder;
        // Two tasks that cannot both meet a deadline of 4: run the
        // longer one first, then idle past the other's deadline by
        // firing whatever the net allows at its latest delay.
        let spec = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let tasknet = translate(&spec);
        let net = tasknet.net();
        let mut explorer = Explorer::new(net);
        let mut state = explorer.intern_initial();
        let (mut enabled, mut next_enabled) = (Vec::new(), Vec::new());
        explorer.enabled_into(state, &mut enabled);
        let (mut bounds, mut domains) = (ClockBounds::default(), Vec::new());
        let mut run = Vec::new();
        let mut at = 0;
        loop {
            net.clock_bounds_into(explorer.state(state), &enabled, &mut bounds);
            net.fireable_domains_into(&bounds, &mut domains);
            let Some(&(t, dlb, _)) = domains.first() else {
                panic!("no deadline miss before the run deadlocked")
            };
            at += dlb;
            run.push(ScheduledFiring {
                transition: t,
                role: tasknet.role(t),
                delay: dlb,
                at,
            });
            state = explorer.fire(state, &enabled, t, dlb, &mut next_enabled).0;
            std::mem::swap(&mut enabled, &mut next_enabled);
            if tasknet.has_deadline_miss_packed(explorer.state(state)) {
                break;
            }
        }
        let step = run.len() - 1;
        assert_eq!(
            replay(&tasknet, &run),
            Err(ReplayError::DeadlineMiss { step })
        );
    }

    #[test]
    fn replay_errors_display_their_step() {
        let err = ReplayError::NotFireable {
            step: 3,
            transition: TransitionId::from_index(7),
        };
        assert_eq!(err.to_string(), "step 3: t7 is not fireable");
        let err = ReplayError::DelayOutOfDomain {
            step: 5,
            transition: TransitionId::from_index(1),
            delay: 9,
        };
        assert!(err.to_string().contains("outside its firing domain"));
        assert!(ReplayError::DeadlineMiss { step: 2 }
            .to_string()
            .contains("deadline-miss"));
        assert!(ReplayError::NotFinal.to_string().contains("final marking"));
    }
}
