//! The paper's §5 case study end to end: the mine pump control system.
//!
//! A simplified pump control system for a mining environment: the pump
//! drains a sump between water-level bounds, but must stay off while
//! the methane level is critical; carbon monoxide and air flow are
//! monitored continuously. Ten periodic tasks (Table 1), hyper-period
//! 30 000, 782 task instances.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mine_pump
//! ```

use ezrealtime::codegen::Target;
use ezrealtime::core::Project;
use ezrealtime::spec::corpus::mine_pump;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = mine_pump();
    println!("Table 1 specification:\n{spec}");
    println!(
        "hyperperiod {} time units, {} task instances\n",
        spec.hyperperiod(),
        spec.total_instances()
    );

    let outcome = Project::new(spec).synthesize()?;
    println!("schedule synthesis (paper: 3268 states, minimum 3130, 330 ms):");
    println!(
        "  states visited  {:>6}\n  minimum states  {:>6}\n  overhead ratio  {:>9.4}\n  elapsed         {:>6.1?}",
        outcome.stats.states_visited,
        outcome.stats.minimum_states(),
        outcome.stats.overhead_ratio(),
        outcome.stats.elapsed,
    );

    // No violations when re-checked against the specification.
    let violations = outcome.solution.validate();
    println!("  validator       {:>6} violations", violations.len());

    // The first 160 time units of the synthesized schedule.
    println!("\ntimeline [0, 160):");
    print!("{}", outcome.solution.gantt(0, 160));

    // Execute two hyper-periods on the simulated dispatcher.
    let report = outcome.solution.execute_for(2);
    println!(
        "\ndispatcher execution over 2 periods: misses={} jitter={} busy={} idle={}",
        report.deadline_misses.len(),
        report.max_release_jitter(),
        report.busy_time,
        report.idle_time,
    );

    // Artefacts: schedule table, C code, PNML.
    println!(
        "\nschedule table rows: {} (one per instance; all non-preemptive)",
        outcome.solution.table().entries().len()
    );
    let code = outcome.solution.generate_code(Target::I8051);
    println!(
        "generated {} for the 8051 target ({} bytes)",
        code.source_name,
        code.source.len()
    );
    let pnml = outcome.solution.to_pnml();
    println!("PNML export: {} bytes (ISO/IEC 15909-2)", pnml.len());
    Ok(())
}
