//! Experiment S5 — the paper's §5 case study: synthesize the mine pump
//! schedule (782 task instances) and report the searched-state counts.
//!
//! Paper reference numbers: 3 268 states searched (minimum 3 130) in
//! 330 ms on an AMD Athlon 1800 MHz. The criterion measurement times the
//! same end-to-end synthesis on the host; the state counts are printed
//! once at startup.

use criterion::{criterion_group, criterion_main, Criterion};
use ezrt_compose::translate;
use ezrt_scheduler::{synthesize, SchedulerConfig, Timeline};
use ezrt_spec::corpus::mine_pump;
use std::hint::black_box;

fn report_reference_numbers() {
    let spec = mine_pump();
    let tasknet = translate(&spec);
    let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
    eprintln!(
        "[S5] mine pump: instances={} visited={} minimum={} ratio={:.4} (paper: 782 / 3268 / 3130 / {:.4})",
        spec.total_instances(),
        synthesis.stats.states_visited,
        synthesis.stats.minimum_states(),
        synthesis.stats.overhead_ratio(),
        3268.0 / 3130.0,
    );
}

fn bench_mine_pump(c: &mut Criterion) {
    report_reference_numbers();
    let spec = mine_pump();
    let tasknet = translate(&spec);
    let config = SchedulerConfig::default();

    let mut group = c.benchmark_group("mine_pump");
    group.sample_size(20);

    group.bench_function("translate", |b| {
        b.iter(|| black_box(translate(black_box(&spec))))
    });

    group.bench_function("synthesize", |b| {
        b.iter(|| black_box(synthesize(black_box(&tasknet), &config).expect("feasible")))
    });

    let synthesis = synthesize(&tasknet, &config).expect("feasible");
    group.bench_function("timeline", |b| {
        b.iter(|| black_box(Timeline::from_schedule(&tasknet, &synthesis.schedule)))
    });

    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let tasknet = translate(&spec);
            let synthesis = synthesize(&tasknet, &config).expect("feasible");
            black_box(Timeline::from_schedule(&tasknet, &synthesis.schedule))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_mine_pump);
criterion_main!(benches);
