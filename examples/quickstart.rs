//! Quickstart: specify a small hard real-time system, synthesize its
//! pre-runtime schedule, and look at every artefact the pipeline
//! produces.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ezrealtime::codegen::Target;
use ezrealtime::core::Project;
use ezrealtime::spec::SpecBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Specify: three periodic tasks with a data dependency and a
    //    shared resource, exactly the §3.2 specification model.
    let spec = SpecBuilder::new("quickstart")
        .task("sample", |t| {
            t.computation(2)
                .deadline(10)
                .period(25)
                .code("sensor_value = adc_read();")
        })
        .task("control", |t| {
            t.computation(5)
                .deadline(20)
                .period(25)
                .code("output = pid_step(sensor_value);")
        })
        .task("log", |t| {
            t.computation(3)
                .deadline(25)
                .period(25)
                .code("log_append(output);")
        })
        .precedes("sample", "control")
        .precedes("control", "log")
        .excludes("sample", "log")
        .build()?;

    println!("specification:\n{spec}");

    // 2. Synthesize: specification → time Petri net → depth-first search
    //    → feasible firing schedule (paper §3.3 + §4.4.1).
    let project = Project::new(spec);
    let outcome = project.synthesize()?;
    println!(
        "synthesis: {} firings, {} states searched (minimum {}), {:?}",
        outcome.solution.schedule().firings().len(),
        outcome.stats.states_visited,
        outcome.stats.minimum_states(),
        outcome.stats.elapsed,
    );

    // 3. Inspect the execution timeline.
    println!("\ntimeline (one schedule period):");
    print!("{}", outcome.solution.gantt(0, 25));

    // 4. The Fig. 8 schedule table…
    println!(
        "\nschedule table:\n{}",
        outcome.solution.table().to_c_array()
    );

    // 5. …and the scheduled C code for a host-runnable target.
    let code = outcome.solution.generate_code(Target::PosixSim);
    println!(
        "generated {} ({} bytes) and {} ({} bytes)",
        code.header_name,
        code.header.len(),
        code.source_name,
        code.source.len()
    );

    // 6. Execute on the simulated dispatcher: timely and predictable.
    let report = outcome.solution.execute_for(4);
    println!(
        "\nsimulated 4 schedule periods: misses={}, release jitter={}, utilization={:.2}",
        report.deadline_misses.len(),
        report.max_release_jitter(),
        report.utilization()
    );
    assert!(report.is_timely());
    Ok(())
}
