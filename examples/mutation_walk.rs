//! A random walk through spec space: start from a generated family
//! member and apply seeded structured mutations, re-synthesizing
//! incrementally at each step — the edit-loop workload the warm-start
//! machinery is built for.
//!
//! Run with:
//!
//! ```text
//! cargo run --example mutation_walk
//! ```

use ezrealtime::core::Project;
use ezrealtime::spec::generate::{family_spec, random_mutation, Family};

fn main() {
    let family = Family::Harmonic {
        tasks: 4,
        base_period: 12,
        utilization: 0.45,
    };
    let mut spec = family_spec(&family, 7);
    let mut solution = match Project::new(spec.clone()).synthesize() {
        Ok(outcome) => {
            println!(
                "base {:<14} feasible cold in {} states",
                spec.name(),
                outcome.stats.states_visited
            );
            Some(outcome.solution)
        }
        Err(e) => {
            println!("base {:<14} {e}", spec.name());
            None
        }
    };

    for step in 0..8u64 {
        let mutation = random_mutation(&spec, step);
        let mutated = match mutation.apply(&spec) {
            Ok(mutated) => mutated,
            Err(e) => {
                // A rejected edit is part of the contract: the mutated
                // spec would not validate, so the walk stays put.
                println!("step {step}: {mutation:?} rejected: {e}");
                continue;
            }
        };
        let touched = mutation.touched(&spec);
        let project = Project::new(mutated.clone());
        // Warm-start from the previous schedule when there is one;
        // fall back to a cold search after an infeasible step.
        let result = match &solution {
            Some(seed) => project.synthesize_incremental(seed.schedule()),
            None => project.synthesize(),
        };
        match result {
            Ok(outcome) => {
                println!(
                    "step {step}: {mutation:?} touched {touched:?} → feasible, \
                     {} fresh states ({} firings replayed)",
                    outcome.stats.states_visited, outcome.stats.incr_replayed
                );
                solution = Some(outcome.solution);
                spec = mutated;
            }
            Err(e) => {
                println!("step {step}: {mutation:?} touched {touched:?} → {e}");
                solution = None;
                spec = mutated;
            }
        }
    }
}
