//! Machine-readable partial-order-reduction benchmark: off versus
//! stubborn state counts on the mine pump and three 10-task sweep
//! shapes, sequentially and at four workers. Prints one JSON object to
//! stdout; `scripts/bench-summary.sh` redirects it into `BENCH_10.json`
//! so the perf trajectory has committed data points.

use ezrealtime::compose::translate;
use ezrealtime::scheduler::{
    synthesize, synthesize_parallel, Parallelism, PorLevel, SchedulerConfig, SynthesizeError,
};
use ezrealtime::spec::corpus::mine_pump;
use ezrealtime::spec::generate::{synthetic_spec, WorkloadConfig};
use ezrealtime::spec::EzSpec;
use std::time::Instant;

fn run(workload: &str, spec: &EzSpec, por: PorLevel, jobs: usize) -> String {
    let tasknet = translate(spec);
    let config = SchedulerConfig {
        por,
        parallelism: Parallelism::new(jobs),
        max_states: 3_000_000,
        max_time: std::time::Duration::from_secs(120),
        ..SchedulerConfig::default()
    };
    let started = Instant::now();
    let result = if jobs > 1 {
        synthesize_parallel(&tasknet, &config)
    } else {
        synthesize(&tasknet, &config)
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (verdict, stats) = match &result {
        Ok(s) => ("feasible", &s.stats),
        Err(e @ SynthesizeError::Infeasible { .. }) => ("infeasible", e.stats()),
        Err(e) => ("budget", e.stats()),
    };
    format!(
        "    {{\"workload\": \"{workload}\", \"jobs\": {jobs}, \"por\": \"{}\", \
         \"verdict\": \"{verdict}\", \"states_visited\": {}, \"backtracks\": {}, \
         \"wall_ms\": {wall_ms:.1}, \"por_stubborn_skips\": {}, \"por_sleep_skips\": {}, \
         \"por_overlap_skips\": {}}}",
        por.name(),
        stats.states_visited,
        stats.backtracks,
        stats.por_stubborn_skips,
        stats.por_sleep_skips,
        stats.por_overlap_skips,
    )
}

fn main() {
    let mut workloads: Vec<(String, EzSpec)> = vec![("mine_pump".to_owned(), mine_pump())];
    for (label, util, excl) in [
        ("sweep10_u0.80", 0.8, 0.4),
        ("sweep10_u0.90", 0.9, 0.5),
        ("sweep10_u0.95", 0.95, 0.6),
    ] {
        let spec = synthetic_spec(
            &WorkloadConfig {
                tasks: 10,
                total_utilization: util,
                periods: vec![20, 40, 80],
                precedence_probability: 0.3,
                exclusion_probability: excl,
                constrained_deadlines: true,
                ..WorkloadConfig::default()
            },
            42,
        );
        workloads.push((label.to_owned(), spec));
    }

    let mut rows = Vec::new();
    for (label, spec) in &workloads {
        for jobs in [1usize, 4] {
            for por in [PorLevel::Off, PorLevel::Stubborn] {
                eprintln!("por_summary: {label} jobs={jobs} por={por}...");
                rows.push(run(label, spec, por, jobs));
            }
        }
    }

    println!("{{");
    println!("  \"issue\": 10,");
    println!("  \"bench\": \"stubborn-set + sleep-set partial-order reduction\",");
    println!(
        "  \"cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("  \"runs\": [");
    println!("{}", rows.join(",\n"));
    println!("  ],");
    println!("  \"notes\": [");
    println!(
        "    \"mine pump, jobs=1: off and stubborn are expected to visit the SAME state \
         count — every residual branch point on the pump is genuinely dependent grant \
         arbitration (shared-resource conflicts), which no sound reduction may prune; the \
         sweeps are where independent interleavings exist to cut.\","
    );
    println!(
        "    \"jobs=4: workers never let a sleep filter or a covered-frontier skip empty a \
         frame whose parent has no other candidates (it would unwind the whole racing stack), \
         so the pump at four workers lands at parity with off while the sweep shapes keep \
         their reduction.\","
    );
    println!(
        "    \"sweep rows are the infeasibility proofs of an overloaded 10-task set: the \
         whole reduced space is closed, so states_visited deltas are deterministic at jobs=1 \
         and wall-time deltas follow them.\""
    );
    println!("  ]");
    println!("}}");
}
