//! The net-level replay oracle.
//!
//! [`validate`](crate::validate) re-checks a timeline against the
//! *specification*; [`replay`] re-checks a firing sequence against the
//! *net semantics*: every firing must be a member of `FT(s)` with a delay
//! inside `FD_s(t)`, no state on the run may mark a deadline-miss place,
//! and the run must reach the desired final marking `MF`. It drives the
//! same packed [`Explorer`] the search uses, without allocating per step.
//!
//! This is the workspace's only replay. It checks each synthesized result
//! once (`ezrt_core::Project`), re-establishes decoded disk-cache entries,
//! and is the verbatim fast path of
//! [`synthesize_seeded`](crate::synthesize_seeded): a warm-start seed that
//! replays to `MF` *is* the result.

use crate::schedule::ScheduledFiring;
use ezrt_compose::TaskNet;
use ezrt_tpn::reachability::Explorer;
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
    /// Number of distinct states on the run (deduplicated by the arena;
    /// at most `firings + 1`).
    pub distinct_states: usize,
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
    let mut explorer = Explorer::new(tasknet.net());
    let mut domains = Vec::new();
    let mut state = explorer.intern_initial();
    let mut makespan: Time = 0;

    for (step, firing) in firings.iter().enumerate() {
        explorer.fireable_domains_into(state, &mut domains);
        let Some(&(_, dlb, upper)) = domains.iter().find(|&&(t, _, _)| t == firing.transition)
        else {
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
        state = explorer.fire(state, firing.transition, firing.delay).0;
        makespan += firing.delay;
        let packed = explorer.state(state);
        if tasknet.has_deadline_miss_packed(packed) {
            return Err(ReplayError::DeadlineMiss { step });
        }
        if tasknet.is_final_packed(packed) {
            return Ok(ReplayReport {
                firings: step + 1,
                distinct_states: explorer.arena().len(),
                makespan,
            });
        }
    }
    Err(ReplayError::NotFinal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, FeasibleSchedule, SchedulerConfig};
    use ezrt_compose::translate;
    use ezrt_spec::corpus::{figure3_spec, figure8_spec, mine_pump, small_control};

    #[test]
    fn synthesized_schedules_replay_cleanly() {
        for spec in [figure3_spec(), figure8_spec(), small_control(), mine_pump()] {
            let tasknet = translate(&spec);
            let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
            let report = replay(&tasknet, &synthesis.schedule)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert_eq!(report.firings, synthesis.schedule.firings().len());
            assert_eq!(report.makespan, synthesis.schedule.makespan());
            assert!(report.distinct_states <= report.firings + 1);
            assert!(report.distinct_states > 0);
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
        let mut domains = Vec::new();
        let mut run = Vec::new();
        let mut at = 0;
        loop {
            explorer.fireable_domains_into(state, &mut domains);
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
            state = explorer.fire(state, t, dlb).0;
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
