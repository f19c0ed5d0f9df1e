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
use ezrt_scheduler::{
    synthesize, synthesize_parallel, synthesize_reference, Parallelism, PorLevel, SchedulerConfig,
};
use ezrt_tpn::{ShardedArena, StateLayout, TimeInterval, TpnBuilder};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
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

/// The sequential-versus-parallel engine comparison on the 10-task sweep:
/// wall time and speedup per worker count, on both workload shapes — a
/// feasible set (first-feasible-wins wall time; every parallel schedule is
/// re-checked through the `ezrt_sim::replay` net-semantics oracle) and an
/// infeasible set (the exhaustion proof, which parallel workers genuinely
/// divide through the shared dead-set).
fn report_parallel_scaling() {
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    eprintln!(
        "[X1] parallel scaling ({tasks} tasks; host has {} core(s) available):",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (shape, seed) in [
        ("feasible", ezrt_bench::SWEEP_FEASIBLE_SEED),
        ("infeasible proof", ezrt_bench::SWEEP_INFEASIBLE_SEED),
    ] {
        let tasknet = translate(&sweep_spec(tasks, seed));
        let started = Instant::now();
        let sequential = synthesize(&tasknet, &SchedulerConfig::default());
        let sequential_wall = started.elapsed();
        eprintln!(
            "[X1]   {shape} (seed {seed}): sequential {:.1} ms, {} states",
            sequential_wall.as_secs_f64() * 1e3,
            sequential
                .as_ref()
                .map(|s| s.stats.states_visited)
                .unwrap_or_else(|e| e.stats().states_visited),
        );
        for jobs in [1usize, 2, 4] {
            let config = SchedulerConfig {
                parallelism: Parallelism::new(jobs),
                ..SchedulerConfig::default()
            };
            let started = Instant::now();
            let result = synthesize_parallel(&tasknet, &config);
            let wall = started.elapsed();
            if let Ok(synthesis) = &result {
                ezrt_sim::replay::replay(&tasknet, &synthesis.schedule)
                    .expect("parallel schedule must replay through the net oracle");
            }
            let visited = result
                .as_ref()
                .map(|s| s.stats.states_visited)
                .unwrap_or_else(|e| e.stats().states_visited);
            eprintln!(
                "[X1]     jobs={jobs}: {:.1} ms wall ({:.2}x), {} states visited{}",
                wall.as_secs_f64() * 1e3,
                sequential_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9),
                visited,
                if result.is_ok() { ", replay ok" } else { "" },
            );
        }
    }
}

/// The stubborn-set reduction at and beyond one worker: off versus
/// stubborn state counts on the 10-task exhaustion proof, sequentially
/// and at four workers sharing expansion summaries through the arena.
/// The infeasible shape is where the reduction matters most — the proof
/// must close the whole reduced space, so every pruned interleaving is
/// a state the search never pays for.
fn report_por_scaling() {
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    let tasknet = translate(&sweep_spec(tasks, ezrt_bench::SWEEP_INFEASIBLE_SEED));
    eprintln!("[X2] partial-order reduction ({tasks} tasks, infeasibility proof):");
    for jobs in [1usize, 4] {
        for por in [PorLevel::Off, PorLevel::Stubborn] {
            let config = SchedulerConfig {
                por,
                parallelism: Parallelism::new(jobs),
                ..SchedulerConfig::default()
            };
            let started = Instant::now();
            let result = if jobs > 1 {
                synthesize_parallel(&tasknet, &config)
            } else {
                synthesize(&tasknet, &config)
            };
            let wall = started.elapsed();
            let stats = match &result {
                Ok(s) => &s.stats,
                Err(e) => e.stats(),
            };
            eprintln!(
                "[X2]   jobs={jobs} por={:<8}: {} states, {:.1} ms \
                 (stubborn skips {}, sleep skips {}, overlap skips {})",
                por.name(),
                stats.states_visited,
                wall.as_secs_f64() * 1e3,
                stats.por_stubborn_skips,
                stats.por_sleep_skips,
                stats.por_overlap_skips,
            );
        }
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

/// A baseline replica of the PR 2 interning design: the same per-shard
/// slab+probe-table structure as `ShardedArena`, but with the global
/// **`RwLock<Vec<u64>>` directory appended once per fresh state** — the
/// serialization point the id-block scheme removed. Only the directory
/// strategy differs between the two arms of the contention microbench,
/// so the throughput gap is attributable to the directory.
struct RwLockDirectoryArena {
    words: usize,
    shards: Vec<Mutex<BaselineShard>>,
    shard_mask: u64,
    directory: RwLock<Vec<u64>>,
    /// Mirror of `directory.len()`, maintained like the PR 2 arena did.
    len: AtomicUsize,
}

struct BaselineShard {
    slab: Vec<u32>,
    hashes: Vec<u64>,
    globals: Vec<u32>,
    table: Vec<u32>,
    mask: usize,
}

const BASELINE_EMPTY: u32 = u32::MAX;

/// The kernel's FxHash-style multiply-mix (`ezrt_tpn::arena::hash_words`
/// is crate-private), reproduced verbatim so the two microbench arms pay
/// the same hashing cost and differ only in the directory strategy.
fn baseline_hash(words: &[u32]) -> u64 {
    const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut chunks = words.chunks_exact(2);
    for pair in &mut chunks {
        let v = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
        hash = (hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
    if let [last] = chunks.remainder() {
        hash = (hash.rotate_left(5) ^ u64::from(*last)).wrapping_mul(SEED);
    }
    hash
}

impl RwLockDirectoryArena {
    fn new(words: usize, workers: usize) -> Self {
        let shards = (workers.max(1) * 4).next_power_of_two().min(256);
        RwLockDirectoryArena {
            words,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(BaselineShard {
                        slab: Vec::new(),
                        hashes: Vec::new(),
                        globals: Vec::new(),
                        table: vec![BASELINE_EMPTY; 256],
                        mask: 255,
                    })
                })
                .collect(),
            shard_mask: shards as u64 - 1,
            directory: RwLock::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn intern(&self, state: &[u32]) -> (u32, bool) {
        assert_eq!(state.len(), self.words, "state length mismatch");
        let hash = baseline_hash(state);
        let shard_index = ((hash >> 48) & self.shard_mask) as usize;
        let mut shard = self.shards[shard_index].lock().unwrap();
        let mut slot = (hash as usize) & shard.mask;
        loop {
            let entry = shard.table[slot];
            if entry == BASELINE_EMPTY {
                let local = shard.hashes.len();
                shard.slab.extend_from_slice(state);
                shard.hashes.push(hash);
                let global = {
                    let mut directory = self.directory.write().unwrap();
                    let id = directory.len() as u32;
                    directory.push(((shard_index as u64) << 48) | local as u64);
                    self.len.store(directory.len(), Ordering::Release);
                    id
                };
                shard.globals.push(global);
                shard.table[slot] = local as u32;
                if shard.hashes.len() * 10 >= shard.table.len() * 7 {
                    let capacity = shard.table.len() * 2;
                    let mask = capacity - 1;
                    let mut table = vec![BASELINE_EMPTY; capacity];
                    for (i, &h) in shard.hashes.iter().enumerate() {
                        let mut s = (h as usize) & mask;
                        while table[s] != BASELINE_EMPTY {
                            s = (s + 1) & mask;
                        }
                        table[s] = i as u32;
                    }
                    shard.table = table;
                    shard.mask = mask;
                }
                return (global, true);
            }
            let candidate = entry as usize;
            if shard.hashes[candidate] == hash {
                let start = candidate * self.words;
                if &shard.slab[start..start + self.words] == state {
                    return (shard.globals[candidate], false);
                }
            }
            slot = (slot + 1) & shard.mask;
        }
    }
}

/// The directory-contention microbench: pure fresh-state interning
/// throughput at 1–8 interning threads, id-block `ShardedArena` versus
/// the `RwLock`-directory baseline. Every thread interns a disjoint
/// range of synthetic states (all fresh — the worst case for the
/// directory, since duplicate hits never touched it in either design).
fn report_directory_contention() {
    let mut b = TpnBuilder::new("contention");
    let p = b.place_with_tokens("p", 1);
    let t = b.transition("t", TimeInterval::exact(1));
    b.arc_place_to_transition(p, t, 1);
    let net = b.build().expect("tiny net");
    let layout = StateLayout::of(&net);
    let words = layout.words();
    const TOTAL: usize = 400_000;

    eprintln!(
        "[X1] directory contention: fresh-intern throughput, id-block arena vs RwLock directory \
         ({TOTAL} states, {} core(s) available):",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for jobs in [1usize, 2, 4, 8] {
        let per_thread = TOTAL / jobs;
        let run = |intern: &(dyn Fn(&[u32]) + Sync)| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for worker in 0..jobs {
                    scope.spawn(move || {
                        let mut state = vec![0u32; words];
                        let base = (worker * per_thread) as u32;
                        for i in 0..per_thread as u32 {
                            let value = base + i;
                            state[0] = value;
                            state[1] = value.rotate_left(16) ^ 0x5bd1e995;
                            intern(&state);
                        }
                    });
                }
            });
            started.elapsed()
        };

        // Best of three fills per arm (fresh arena each fill), so one
        // badly scheduled fill doesn't decide the comparison.
        let sharded_wall = (0..3)
            .map(|_| {
                let sharded = ShardedArena::new(layout, jobs);
                let count = AtomicUsize::new(0);
                let wall = run(&|state: &[u32]| {
                    if sharded.intern(state).1 {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert_eq!(count.load(Ordering::Relaxed), TOTAL, "every state fresh");
                assert_eq!(sharded.len(), TOTAL);
                wall
            })
            .min()
            .expect("three fills");

        let baseline_wall = (0..3)
            .map(|_| {
                let baseline = RwLockDirectoryArena::new(words, jobs);
                let wall = run(&|state: &[u32]| {
                    baseline.intern(state);
                });
                assert_eq!(baseline.len.load(Ordering::Relaxed), TOTAL);
                wall
            })
            .min()
            .expect("three fills");

        let throughput = |wall: std::time::Duration| TOTAL as f64 / wall.as_secs_f64().max(1e-9);
        eprintln!(
            "[X1]   jobs={jobs}: id-block {:.2}M states/s vs rwlock-dir {:.2}M states/s ({:.2}x)",
            throughput(sharded_wall) / 1e6,
            throughput(baseline_wall) / 1e6,
            throughput(sharded_wall) / throughput(baseline_wall).max(1e-9),
        );
    }
}

fn bench_state_space(c: &mut Criterion) {
    report_sweep_shape();
    report_kernel_comparison();
    report_parallel_scaling();
    report_por_scaling();
    report_incremental();
    report_directory_contention();
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
    // The parallel engine on the largest size only, one row per worker
    // count, so the seq-vs-parallel trend shows up in every criterion run
    // (the feasible deep-search seed; the infeasible exhaustion shape is
    // covered by the report above).
    let tasks = *SWEEP_TASK_COUNTS.last().expect("sweep sizes");
    let tasknet = translate(&sweep_spec(tasks, ezrt_bench::SWEEP_FEASIBLE_SEED));
    for jobs in [2usize, 4] {
        let config = SchedulerConfig {
            parallelism: Parallelism::new(jobs),
            ..SchedulerConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new(format!("synthesize_parallel_j{jobs}"), tasks),
            &tasks,
            |b, _| b.iter(|| black_box(synthesize_parallel(black_box(&tasknet), &config))),
        );
    }
    // The POR ablation arms on the largest size: the unreduced baseline
    // next to the default stubborn rows above, sequentially and at four
    // workers, so the reduction's wall-time effect is in every run.
    {
        let off = SchedulerConfig {
            por: PorLevel::Off,
            ..SchedulerConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("synthesize_por_off", tasks),
            &tasks,
            |b, _| b.iter(|| black_box(synthesize(black_box(&tasknet), &off))),
        );
        let off_j4 = SchedulerConfig {
            por: PorLevel::Off,
            parallelism: Parallelism::new(4),
            ..SchedulerConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("synthesize_parallel_j4_por_off", tasks),
            &tasks,
            |b, _| b.iter(|| black_box(synthesize_parallel(black_box(&tasknet), &off_j4))),
        );
    }
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
