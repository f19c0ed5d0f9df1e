//! Experiments X2 and X3 — ablations of the two state-space-control
//! devices the paper leans on:
//!
//! * X2: the partial-order reduction (Lilius-style pruning, §4.4.1)
//!   at its two levels — `off` and the default `stubborn`+sleep-set
//!   reduction;
//! * X3: EDF branch ordering versus naive FIFO ordering.

use criterion::{criterion_group, criterion_main, Criterion};
use ezrt_bench::{sweep_spec, SWEEP_SEEDS};
use ezrt_compose::translate;
use ezrt_scheduler::{synthesize, synthesize_reference, BranchOrdering, PorLevel, SchedulerConfig};
use ezrt_spec::corpus::small_control;
use std::hint::black_box;

const POR_LEVELS: [PorLevel; 2] = [PorLevel::Stubborn, PorLevel::Off];

fn report_ablation_shape() {
    let specs: Vec<_> = SWEEP_SEEDS.iter().map(|&s| sweep_spec(6, s)).collect();
    let mut rows: Vec<(String, SchedulerConfig)> = Vec::new();
    for ordering in [BranchOrdering::Edf, BranchOrdering::Fifo] {
        for por in POR_LEVELS {
            rows.push((
                format!("por={:<8} {ordering:?}", por.name()),
                SchedulerConfig {
                    por,
                    ordering,
                    ..SchedulerConfig::default()
                },
            ));
        }
    }
    for (label, config) in rows.iter_mut() {
        config.max_states = 2_000_000;
        let mut visited = 0usize;
        let mut solved = 0usize;
        for spec in &specs {
            let tasknet = translate(spec);
            if let Ok(s) = synthesize(&tasknet, config) {
                visited += s.stats.states_visited;
                solved += 1;
            }
        }
        eprintln!(
            "[X2/X3] {label}: mean visited {} ({} of {} solved)",
            visited.checked_div(solved).unwrap_or(0),
            solved,
            specs.len()
        );
    }
}

/// POR earns its keep on simultaneous-arrival waves: the mine pump
/// releases all 10 tasks at t = 0 and six more at every 500-boundary,
/// and without the reduction the search wanders the permutation lattice
/// of those independent arrival firings. (Stubborn matches off in
/// visited states here — the pump's residual branching is genuinely
/// dependent grant arbitration — which is itself a §4.4.1 data point.)
fn report_mine_pump_por() {
    use ezrt_spec::corpus::mine_pump;
    let tasknet = translate(&mine_pump());
    for por in POR_LEVELS {
        let config = SchedulerConfig {
            por,
            max_states: 5_000_000,
            ..SchedulerConfig::default()
        };
        match synthesize(&tasknet, &config) {
            Ok(s) => eprintln!(
                "[X2] mine pump por={}: visited {} (minimum {}, stubborn skips {}, sleep skips {})",
                por.name(),
                s.stats.states_visited,
                s.stats.minimum_states(),
                s.stats.por_stubborn_skips,
                s.stats.por_sleep_skips,
            ),
            Err(e) => eprintln!("[X2] mine pump por={}: {e}", por.name()),
        }
    }
}

/// Exhaustive-search cost (infeasibility proof) at each reduction level:
/// the stubborn-vs-off delta includes the arrival-permutation lattice
/// the conflict-free class rule collapses (2^k − k for k simultaneous
/// arrivals) and the partially conflicting classes the stubborn closure
/// trims.
fn report_infeasibility_proof_cost() {
    use ezrt_spec::SpecBuilder;
    let mut b = SpecBuilder::new("overload8");
    for i in 0..8 {
        b = b.task(format!("t{i}"), |t| {
            t.computation(2).deadline(10).period(10)
        });
    }
    let spec = b.build().expect("valid but overloaded");
    let tasknet = translate(&spec);
    for por in POR_LEVELS {
        let config = SchedulerConfig {
            por,
            max_states: 5_000_000,
            ..SchedulerConfig::default()
        };
        if let Err(e) = synthesize(&tasknet, &config) {
            eprintln!(
                "[X2] infeasibility proof por={:<8}: visited {}",
                por.name(),
                e.stats().states_visited
            );
        }
    }
}

/// X6 — the packed-kernel ablation: the same search with the preserved
/// value-typed kernel versus the packed one, on the mine pump. The
/// reference engine implements no reduction, so both sides run
/// `por=off` and visit identical states (equivalence-tested); the
/// throughput delta is purely the state representation and duplicate
/// detection.
fn report_kernel_ablation() {
    use ezrt_spec::corpus::mine_pump;
    let tasknet = translate(&mine_pump());
    let config = SchedulerConfig {
        por: PorLevel::Off,
        ..SchedulerConfig::default()
    };
    let packed = synthesize(&tasknet, &config);
    let reference = synthesize_reference(&tasknet, &config);
    if let (Ok(packed), Ok(reference)) = (packed, reference) {
        eprintln!(
            "[X6] mine pump kernels: packed {:.0} states/s ({} dead-set bytes) vs reference {:.0} states/s ({} bytes)",
            packed.stats.states_per_second(),
            packed.stats.dead_set_bytes,
            reference.stats.states_per_second(),
            reference.stats.dead_set_bytes,
        );
    }
}

fn bench_ablation(c: &mut Criterion) {
    report_ablation_shape();
    report_mine_pump_por();
    report_infeasibility_proof_cost();
    report_kernel_ablation();
    let spec = small_control();
    let tasknet = translate(&spec);
    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);

    for por in POR_LEVELS {
        group.bench_function(format!("por_{}_edf", por.name()), |b| {
            let config = SchedulerConfig {
                por,
                ..SchedulerConfig::default()
            };
            b.iter(|| black_box(synthesize(black_box(&tasknet), &config).expect("feasible")))
        });
    }
    group.bench_function("por_stubborn_fifo", |b| {
        let config = SchedulerConfig {
            ordering: BranchOrdering::Fifo,
            ..SchedulerConfig::default()
        };
        b.iter(|| black_box(synthesize(black_box(&tasknet), &config).expect("feasible")))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
