//! Loading a specification from the ezRealtime XML DSL (paper Fig. 7),
//! synthesizing it, and writing every interchange artefact back out.
//!
//! Run with:
//!
//! ```text
//! cargo run --example dsl_roundtrip
//! ```

use ezrealtime::core::Project;

/// A complete `<rt:ez-spec>` document in the Fig. 7 dialect.
const DOCUMENT: &str = r##"<?xml version="1.0" encoding="UTF-8"?>
<rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime" name="conveyor">
  <Processor identifier="p0"><name>mcu0</name></Processor>
  <Task identifier="ez0" precedesTasks="#ez1">
    <processor>p0</processor>
    <name>BeltSensor</name>
    <period>40</period>
    <power>4</power>
    <schedulingMode>NP</schedulingMode>
    <computing>3</computing>
    <deadline>15</deadline>
    <code>belt_position = encoder_read();</code>
  </Task>
  <Task identifier="ez1" excludesTasks="#ez2">
    <processor>p0</processor>
    <name>MotorCtl</name>
    <period>40</period>
    <power>9</power>
    <schedulingMode>NP</schedulingMode>
    <computing>6</computing>
    <deadline>30</deadline>
    <code>motor_set(pid_step(belt_position));</code>
  </Task>
  <Task identifier="ez2">
    <processor>p0</processor>
    <name>Telemetry</name>
    <period>20</period>
    <power>2</power>
    <schedulingMode>NP</schedulingMode>
    <computing>2</computing>
    <deadline>20</deadline>
    <code>uart_send(belt_position);</code>
  </Task>
</rt:ez-spec>"##;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse the DSL and validate the metamodel constraints.
    let project = Project::from_dsl(DOCUMENT)?;
    println!("loaded from DSL:\n{}", project.spec());

    // Synthesize the pre-runtime schedule.
    let outcome = project.synthesize()?;
    println!("timeline:");
    print!("{}", outcome.solution.gantt(0, 40));

    // Round trip: the printer output parses back to the same model.
    let emitted = project.to_dsl();
    let reloaded = Project::from_dsl(&emitted)?;
    assert_eq!(reloaded.spec(), project.spec());
    println!(
        "\nDSL round trip: identical model ({} bytes)",
        emitted.len()
    );

    // And the synthesized net travels as PNML.
    let pnml = outcome.solution.to_pnml();
    let net = ezrealtime::pnml::from_pnml(&pnml)?;
    println!(
        "PNML round trip: {} places, {} transitions ({} bytes)",
        net.place_count(),
        net.transition_count(),
        pnml.len()
    );
    Ok(())
}
