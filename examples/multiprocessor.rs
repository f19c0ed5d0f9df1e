//! Multi-processor synthesis with inter-task messages over a bus.
//!
//! The Fig. 5 metamodel carries `1..*` processors and `Message` objects
//! with bus, arbitration (`grantBus`) and transfer (`communication`)
//! times; the DATE paper validates mono-processor and names distributed
//! targets as future work. This example runs that extension: a sensing
//! MCU and a control MCU exchanging a frame over CAN, scheduled jointly
//! by the same pre-runtime search.
//!
//! Run with:
//!
//! ```text
//! cargo run --example multiprocessor
//! ```

use ezrealtime::codegen::ScheduleTable;
use ezrealtime::core::Project;
use ezrealtime::spec::SpecBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SpecBuilder::new("dual-node")
        .processor("sensor_mcu")
        .processor("control_mcu")
        .task("sample", |t| {
            t.computation(3)
                .deadline(10)
                .period(40)
                .on_processor("sensor_mcu")
                .code("frame.level = adc_read();")
        })
        .task("transmit", |t| {
            t.computation(2)
                .deadline(20)
                .period(40)
                .on_processor("sensor_mcu")
                .code("can_send(&frame);")
        })
        .task("actuate", |t| {
            t.computation(4)
                .deadline(40)
                .period(40)
                .on_processor("control_mcu")
                .code("valve_set(decide(frame.level));")
        })
        .task("local_watch", |t| {
            t.computation(2)
                .deadline(10)
                .period(20)
                .on_processor("control_mcu")
                .code("wdt_kick();")
        })
        .precedes("sample", "transmit")
        .message("frame", "transmit", "actuate", "can0", 1, 2)
        .build()?;

    println!("specification:\n{spec}");

    let solution = Project::new(spec).synthesize()?.solution;
    println!("joint schedule over both processors:");
    print!("{}", solution.gantt(0, 40));

    // The frame takes 1 (arbitration) + 2 (transfer) units on can0
    // after `transmit` finishes; `actuate` waits for delivery.
    let spec = solution.spec();
    let transmit = spec.task_id("transmit").unwrap();
    let actuate = spec.task_id("actuate").unwrap();
    println!(
        "\nframe: sent at {}, actuate starts at {} (delivery = sent + 1 + 2)",
        solution
            .timeline()
            .instance_completion(transmit, 0)
            .unwrap(),
        solution.timeline().instance_start(actuate, 0).unwrap(),
    );

    // One schedule table — and one generated dispatcher — per MCU.
    for name in ["sensor_mcu", "control_mcu"] {
        let processor = spec.processor_id(name).unwrap();
        let table = ScheduleTable::from_timeline_for(spec, solution.timeline(), processor);
        println!("\n{name}: {} execution part(s)", table.entries().len());
        print!("{}", table.to_c_array());
    }

    let report = solution.execute_for(2);
    println!(
        "\nsimulated 2 periods across both MCUs: misses={} busy={} of horizon {}",
        report.deadline_misses.len(),
        report.busy_time,
        report.horizon
    );
    Ok(())
}
