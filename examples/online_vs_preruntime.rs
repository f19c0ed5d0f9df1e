//! Why pre-runtime scheduling? The mine pump under online schedulers.
//!
//! The paper's approach synthesizes the whole schedule before the system
//! runs. This example contrasts it with classic runtime scheduling on
//! the same Table 1 workload: greedy non-preemptive EDF *misses
//! deadlines* that the pre-runtime search avoids by reordering, and
//! rate-monotonic misses the tight-deadline COH handler outright.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_vs_preruntime
//! ```

use ezrealtime::core::Project;
use ezrealtime::sim::{simulate_online, OnlinePolicy};
use ezrealtime::spec::corpus::mine_pump;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = mine_pump();

    println!(
        "{:<24} {:>8} {:>12} {:>14} {:>10}",
        "scheduler", "misses", "preemptions", "ctx switches", "timely"
    );

    // Pre-runtime: synthesize once, dispatch a fixed table.
    let outcome = Project::new(spec.clone()).synthesize()?;
    let report = outcome.solution.execute_for(2);
    println!(
        "{:<24} {:>8} {:>12} {:>14} {:>10}",
        "pre-runtime synthesis",
        report.deadline_misses.len(),
        report.preemptions,
        report.context_switches,
        report.is_timely(),
    );

    // Online baselines on the identical workload.
    for policy in OnlinePolicy::ALL {
        let online = simulate_online(&spec, policy, 2);
        println!(
            "{:<24} {:>8} {:>12} {:>14} {:>10}",
            policy.name(),
            online.execution.deadline_misses.len(),
            online.execution.preemptions,
            online.execution.context_switches,
            online.schedulable(),
        );
    }

    // Show who exactly gets hurt under rate-monotonic dispatching.
    let rm = simulate_online(&spec, OnlinePolicy::RmPreemptive, 1);
    let mut victims: Vec<&str> = rm
        .execution
        .deadline_misses
        .iter()
        .map(|m| spec.task(m.task).name())
        .collect();
    victims.sort_unstable();
    victims.dedup();
    println!("\nrate-monotonic victims: {}", victims.join(", "));
    println!(
        "(COH has c=15, d=100 but period 2500 — nearly the lowest RM priority;\n \
         deadline-monotonic and EDF fix it, and the pre-runtime table avoids\n \
         the question entirely by fixing every start time offline)"
    );
    Ok(())
}
