//! A preemptive workload in the style of the paper's Fig. 8: short
//! urgent tasks repeatedly preempt longer background work, so the
//! synthesized schedule table contains resumed execution parts and the
//! generated dispatcher exercises its context save/restore paths.
//!
//! Run with:
//!
//! ```text
//! cargo run --example preemptive_control
//! ```

use ezrealtime::codegen::Target;
use ezrealtime::core::Project;
use ezrealtime::spec::corpus::figure8_spec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = figure8_spec();
    println!("specification:\n{spec}");

    let solution = Project::new(spec).synthesize()?.solution;

    println!("timeline ('#' = execution part, '+' = resumed part):");
    print!("{}", solution.gantt(0, 24));

    println!(
        "\n{} execution parts for {} instances — {} preemptions\n",
        solution.table().entries().len(),
        solution.spec().total_instances(),
        solution.timeline().preemption_count()
    );

    // The Fig. 8 artefact itself.
    println!("{}", solution.table().to_c_array());

    // Bare-metal code for an AVR: the resumed rows drive
    // EZRT_CONTEXT_RESTORE instead of a fresh call.
    let code = solution.generate_code(Target::Avr8);
    let restore_sites = code.source.matches("EZRT_CONTEXT_RESTORE").count();
    println!(
        "generated {} with {} context-restore dispatch path(s)",
        code.source_name, restore_sites
    );

    let report = solution.execute_for(3);
    println!(
        "simulated 3 periods: misses={} context switches={} preemptions={}",
        report.deadline_misses.len(),
        report.context_switches,
        report.preemptions,
    );
    Ok(())
}
