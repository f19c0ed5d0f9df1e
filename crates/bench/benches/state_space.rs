//! Experiment X1 — scalability sweep: synthesis cost versus task-set
//! size on synthetic non-preemptive workloads (the paper evaluates one
//! case study; this sweep characterizes how the searched state count
//! grows with the forced minimum).
//!
//! Since the packed-kernel refactor this bench also reports the kernel
//! metrics the ROADMAP tracks — states/second and peak dead-set bytes —
//! and times the preserved value-typed reference kernel next to the
//! packed one, so the speedup is visible in every run's output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ezrt_bench::{sweep_spec, SWEEP_SEEDS, SWEEP_TASK_COUNTS};
use ezrt_compose::translate;
use ezrt_scheduler::{synthesize, synthesize_reference, PorLevel, SchedulerConfig};
use std::hint::black_box;
use std::time::Instant;

fn report_sweep_shape() {
    eprintln!("[X1] packed kernel: states visited / throughput vs task count (seed-averaged):");
    for &tasks in &SWEEP_TASK_COUNTS {
        let mut visited = 0usize;
        let mut minimum = 0u64;
        let mut feasible = 0usize;
        let mut states_per_second = 0.0f64;
        let mut dead_set_bytes = 0usize;
        for &seed in &SWEEP_SEEDS {
            let tasknet = translate(&sweep_spec(tasks, seed));
            if let Ok(s) = synthesize(&tasknet, &SchedulerConfig::default()) {
                visited += s.stats.states_visited;
                minimum += s.stats.minimum_states();
                states_per_second += s.stats.states_per_second();
                dead_set_bytes = dead_set_bytes.max(s.stats.dead_set_bytes);
                feasible += 1;
            }
        }
        if let Some(mean_visited) = visited.checked_div(feasible) {
            eprintln!(
                "[X1]   {tasks:>2} tasks: visited≈{} minimum≈{} {:.0} states/s peak dead-set {} bytes ({}/{} feasible)",
                mean_visited,
                minimum / feasible as u64,
                states_per_second / feasible as f64,
                dead_set_bytes,
                feasible,
                SWEEP_SEEDS.len()
            );
        }
    }
}

/// The packed-versus-reference kernel comparison on the largest sweep
/// size: the headline number for the alloc-free firing + interned
/// dead-set refactor.
fn report_kernel_comparison() {
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    let tasknet = translate(&sweep_spec(tasks, SWEEP_SEEDS[0]));
    let config = SchedulerConfig::default();
    let packed = synthesize(&tasknet, &config);
    let reference = synthesize_reference(&tasknet, &config);
    if let (Ok(packed), Ok(reference)) = (packed, reference) {
        eprintln!(
            "[X1] kernel comparison ({tasks} tasks): packed {:.0} states/s vs reference {:.0} states/s ({:.2}x); dead-set {} vs {} bytes",
            packed.stats.states_per_second(),
            reference.stats.states_per_second(),
            packed.stats.states_per_second() / reference.stats.states_per_second().max(1.0),
            packed.stats.dead_set_bytes,
            reference.stats.dead_set_bytes,
        );
    }
}

/// The stubborn-set reduction: off versus stubborn state counts on the
/// 10-task exhaustion proof. The infeasible shape is where the reduction
/// matters most — the proof must close the whole reduced space, so every
/// pruned interleaving is a state the search never pays for.
fn report_por_scaling() {
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    let tasknet = translate(&sweep_spec(tasks, ezrt_bench::SWEEP_INFEASIBLE_SEED));
    eprintln!("[X2] partial-order reduction ({tasks} tasks, infeasibility proof):");
    for por in [PorLevel::Off, PorLevel::Stubborn] {
        let config = SchedulerConfig {
            por,
            ..SchedulerConfig::default()
        };
        let started = Instant::now();
        let result = synthesize(&tasknet, &config);
        let wall = started.elapsed();
        let stats = match &result {
            Ok(s) => &s.stats,
            Err(e) => e.stats(),
        };
        eprintln!(
            "[X2]   por={:<8}: {} states, {:.1} ms (stubborn skips {}, sleep skips {})",
            por.name(),
            stats.states_visited,
            wall.as_secs_f64() * 1e3,
            stats.por_stubborn_skips,
            stats.por_sleep_skips,
        );
    }
}

/// Loosens (`delta > 0`) or tightens (`delta < 0`) the first
/// `<deadline>N</deadline>` element of a spec document by `|delta|` —
/// the one-task edit of a design loop.
fn nudge_first_deadline(xml: &str, delta: i64) -> String {
    let key = "<deadline>";
    let at = xml.find(key).expect("a deadline element") + key.len();
    let end = at + xml[at..].find('<').expect("closing tag");
    let value: i64 = xml[at..end].trim().parse().expect("numeric deadline");
    format!("{}{}{}", &xml[..at], (value + delta).max(1), &xml[end..])
}

/// Experiment: incremental synthesis. Each workload is synthesized
/// cold, then one deadline is loosened (and, separately, tightened) and
/// the edited spec is solved both cold and warm-started from the
/// previous schedule's legal prefix — the comparison the server's
/// ancestor index buys an edit loop. Also reports the unchanged-spec
/// resubmission, which must do zero fresh search work.
fn report_incremental() {
    use ezrt_scheduler::synthesize_seeded;

    eprintln!("[X1] incremental synthesis: warm start vs cold after a one-deadline edit:");
    let sweep_tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    for (name, spec) in [
        ("mine pump", ezrt_spec::corpus::mine_pump()),
        (
            "10-task sweep",
            sweep_spec(sweep_tasks, ezrt_bench::SWEEP_FEASIBLE_SEED),
        ),
    ] {
        let tasknet = translate(&spec);
        let config = SchedulerConfig::default();
        let Ok(ancestor) = synthesize(&tasknet, &config) else {
            continue;
        };

        let resubmitted = synthesize_seeded(&tasknet, &config, ancestor.schedule.firings())
            .expect("resubmission stays feasible");
        eprintln!(
            "[X1]   {name}, unchanged resubmission: {} fresh states, {} firings replayed",
            resubmitted.stats.states_visited, resubmitted.stats.incr_replayed,
        );

        for (edit, delta) in [("loosened", 1i64), ("tightened", -1i64)] {
            let xml = nudge_first_deadline(&ezrt_dsl::to_xml(&spec), delta);
            let Ok(edited) = ezrt_dsl::from_xml(&xml) else {
                eprintln!("[X1]   {name}, {edit} deadline: edit no longer validates");
                continue;
            };
            let edited_net = translate(&edited);
            let started = Instant::now();
            let cold = synthesize(&edited_net, &config);
            let cold_wall = started.elapsed();
            let started = Instant::now();
            let warm = synthesize_seeded(&edited_net, &config, ancestor.schedule.firings());
            let warm_wall = started.elapsed();
            match (cold, warm) {
                (Ok(cold), Ok(warm)) => {
                    ezrt_sim::replay::replay(&edited_net, &warm.schedule)
                        .expect("warm-started schedule must replay through the net oracle");
                    eprintln!(
                        "[X1]   {name}, {edit} deadline: cold {} states / {:.2} ms vs warm {} states / {:.2} ms ({:.0}% of cold states, {} firings replayed)",
                        cold.stats.states_visited,
                        cold_wall.as_secs_f64() * 1e3,
                        warm.stats.states_visited,
                        warm_wall.as_secs_f64() * 1e3,
                        100.0 * warm.stats.states_visited as f64
                            / cold.stats.states_visited.max(1) as f64,
                        warm.stats.incr_replayed,
                    );
                }
                _ => eprintln!("[X1]   {name}, {edit} deadline: infeasible after the edit"),
            }
        }
    }
}

fn bench_state_space(c: &mut Criterion) {
    report_sweep_shape();
    report_kernel_comparison();
    report_por_scaling();
    report_incremental();
    let mut group = c.benchmark_group("state_space");
    group.sample_size(10);

    for &tasks in &SWEEP_TASK_COUNTS {
        // One representative seed per size keeps the benchmark wall time
        // sane; the sweep above averages over all seeds.
        let spec = sweep_spec(tasks, SWEEP_SEEDS[0]);
        let tasknet = translate(&spec);
        let config = SchedulerConfig::default();
        group.bench_with_input(BenchmarkId::new("synthesize", tasks), &tasks, |b, _| {
            b.iter(|| black_box(synthesize(black_box(&tasknet), &config)))
        });
        group.bench_with_input(
            BenchmarkId::new("synthesize_reference", tasks),
            &tasks,
            |b, _| b.iter(|| black_box(synthesize_reference(black_box(&tasknet), &config))),
        );
    }
    // The POR ablation arm on the largest size (the feasible deep-search
    // seed): the unreduced baseline next to the default stubborn rows
    // above, so the reduction's wall-time effect is in every run.
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    let tasknet = translate(&sweep_spec(tasks, ezrt_bench::SWEEP_FEASIBLE_SEED));
    let off = SchedulerConfig {
        por: PorLevel::Off,
        ..SchedulerConfig::default()
    };
    group.bench_with_input(
        BenchmarkId::new("synthesize_por_off", tasks),
        &tasks,
        |b, _| b.iter(|| black_box(synthesize(black_box(&tasknet), &off))),
    );
    // The edit-loop arm: the mine pump with one loosened deadline,
    // solved cold versus warm-started from the unedited spec's cached
    // schedule — exactly what the server's ancestor hit hands to the
    // seeded search, so the two rows are the end-to-end miss-after-edit
    // comparison.
    {
        use ezrt_scheduler::synthesize_seeded;
        let spec = ezrt_spec::corpus::mine_pump();
        let config = SchedulerConfig::default();
        let ancestor = synthesize(&translate(&spec), &config).expect("mine pump is feasible");
        let edited = ezrt_dsl::from_xml(&nudge_first_deadline(&ezrt_dsl::to_xml(&spec), 1))
            .expect("edited mine pump parses");
        let edited_net = translate(&edited);
        group.bench_function("mine_pump_edit_cold", |b| {
            b.iter(|| black_box(synthesize(black_box(&edited_net), &config)))
        });
        group.bench_function("mine_pump_edit_warm", |b| {
            b.iter(|| {
                black_box(synthesize_seeded(
                    black_box(&edited_net),
                    &config,
                    ancestor.schedule.firings(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_state_space);
criterion_main!(benches);
