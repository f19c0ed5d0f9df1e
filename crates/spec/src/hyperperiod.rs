//! Schedule-period (hyper-period) and task-instance arithmetic.
//!
//! Pre-runtime scheduling considers all task instances within the *schedule
//! period* `P_S`, the least common multiple of the task periods (paper
//! §3.3.1). For the mine pump case study the periods
//! `{80, 500, 1000, 500, 500, 2500, 6000, 500, 500, 500}` yield
//! `P_S = 30 000` and `Σ P_S / p_i = 782` task instances — the numbers
//! quoted in §5 of the paper.

use crate::Time;

/// Greatest common divisor (Euclid).
///
/// # Examples
///
/// ```
/// assert_eq!(ezrt_spec::hyperperiod::gcd(12, 18), 6);
/// assert_eq!(ezrt_spec::hyperperiod::gcd(7, 0), 7);
/// ```
pub fn gcd(a: Time, b: Time) -> Time {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple.
///
/// # Panics
///
/// Panics on arithmetic overflow — hyper-periods beyond `u64` indicate a
/// mis-specified system rather than a workload this tool should accept.
///
/// # Examples
///
/// ```
/// assert_eq!(ezrt_spec::hyperperiod::lcm(80, 500), 2000);
/// ```
pub fn lcm(a: Time, b: Time) -> Time {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b))
        .checked_mul(b)
        .expect("hyperperiod overflow")
}

/// LCM over an iterator of periods; `0` for an empty iterator.
///
/// # Examples
///
/// ```
/// let mine_pump_periods = [80u64, 500, 1000, 500, 500, 2500, 6000, 500, 500, 500];
/// assert_eq!(ezrt_spec::hyperperiod::lcm_all(mine_pump_periods), 30_000);
/// ```
pub fn lcm_all(periods: impl IntoIterator<Item = Time>) -> Time {
    periods
        .into_iter()
        .fold(0, |acc, p| if acc == 0 { p } else { lcm(acc, p) })
}

/// Number of instances of a task with period `period` inside the schedule
/// period `hyperperiod` (`N(t_i) = P_S / p_i`).
///
/// # Panics
///
/// Panics if `period` is zero or does not divide `hyperperiod` — both
/// indicate the hyper-period was computed over a different task set.
pub fn instances(hyperperiod: Time, period: Time) -> u64 {
    assert!(period > 0, "task period must be positive");
    assert_eq!(
        hyperperiod % period,
        0,
        "hyperperiod {hyperperiod} is not a multiple of period {period}"
    );
    hyperperiod / period
}

/// The absolute arrival time of instance `k` (0-based) of a task with the
/// given `phase` and `period`: `ph + k·p`.
pub fn arrival_time(phase: Time, period: Time, instance: u64) -> Time {
    phase + period * instance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(48, 36), 12);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 9), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(80, 2500), 10_000);
    }

    #[test]
    fn mine_pump_hyperperiod_is_30000() {
        let periods = [80u64, 500, 1000, 500, 500, 2500, 6000, 500, 500, 500];
        assert_eq!(lcm_all(periods), 30_000);
    }

    #[test]
    fn mine_pump_total_instances_is_782() {
        let periods = [80u64, 500, 1000, 500, 500, 2500, 6000, 500, 500, 500];
        let hp = lcm_all(periods);
        let total: u64 = periods.iter().map(|&p| instances(hp, p)).sum();
        assert_eq!(total, 782, "the count quoted in §5 of the paper");
    }

    #[test]
    fn instance_arithmetic() {
        assert_eq!(instances(30_000, 80), 375);
        assert_eq!(instances(30_000, 6000), 5);
        assert_eq!(arrival_time(3, 10, 0), 3);
        assert_eq!(arrival_time(3, 10, 4), 43);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn instances_rejects_non_divisor_period() {
        let _ = instances(100, 7);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn instances_rejects_zero_period() {
        let _ = instances(100, 0);
    }

    #[test]
    fn lcm_all_empty_is_zero() {
        assert_eq!(lcm_all(std::iter::empty()), 0);
    }
}
