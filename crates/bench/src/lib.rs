//! Shared workload fixtures of the ezRealtime benchmark.
//!
//! The `paper_tables` binary regenerates the paper's tables and figures
//! and perfbench measures the workspace end to end; the fixtures here
//! keep the synthetic workloads identical across the two.

use ezrt_spec::generate::{synthetic_spec, WorkloadConfig};
use ezrt_spec::EzSpec;

/// Task counts used by the scalability sweep (experiment X1).
pub const SWEEP_TASK_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];

/// Seeds used when averaging over random workloads.
pub const SWEEP_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// The synthetic-workload configuration of the scalability sweep:
/// non-preemptive, mine-pump-like utilization, harmonic periods.
pub fn sweep_config(tasks: usize) -> WorkloadConfig {
    WorkloadConfig {
        tasks,
        total_utilization: 0.55,
        periods: vec![50, 100, 200, 400],
        preemptive_fraction: 0.0,
        precedence_probability: 0.1,
        exclusion_probability: 0.1,
        constrained_deadlines: true,
    }
}

/// One spec of the scalability sweep.
pub fn sweep_spec(tasks: usize, seed: u64) -> EzSpec {
    synthetic_spec(&sweep_config(tasks), seed)
}

/// The sweep seed whose 10-task workload is **feasible** with the deepest
/// search among [`SWEEP_SEEDS`]: perfbench's `proofs` workload runs it as
/// its one deep feasible search.
pub const SWEEP_FEASIBLE_SEED: u64 = 53;

/// A sweep seed whose 10-task workload is **infeasible**: proving that
/// exhausts the reachable space: 259,655 states at `por=stubborn` and
/// 287,543 at `off` (`paper_tables --exp x2`).
pub const SWEEP_INFEASIBLE_SEED: u64 = 11;

/// Utilization levels for the feasibility comparison (experiment X4).
pub const UTILIZATION_LEVELS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// A workload for the pre-runtime vs. online feasibility comparison.
pub fn feasibility_spec(utilization: f64, seed: u64) -> EzSpec {
    synthetic_spec(
        &WorkloadConfig {
            tasks: 6,
            total_utilization: utilization,
            periods: vec![40, 80, 160],
            preemptive_fraction: 0.0,
            precedence_probability: 0.0,
            exclusion_probability: 0.0,
            constrained_deadlines: true,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_specs_are_valid_and_sized() {
        for &tasks in &SWEEP_TASK_COUNTS {
            for &seed in &SWEEP_SEEDS {
                let spec = sweep_spec(tasks, seed);
                assert_eq!(spec.task_count(), tasks);
                assert!(spec.validate().is_ok());
            }
        }
    }

    #[test]
    fn feasibility_specs_scale_with_utilization() {
        let low = feasibility_spec(0.3, 1);
        let high = feasibility_spec(0.9, 1);
        let cpu = low.processors().next().unwrap().0;
        assert!(low.utilization(cpu) < high.utilization(cpu));
    }
}
