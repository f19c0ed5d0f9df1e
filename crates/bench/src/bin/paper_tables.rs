//! `paper_tables` — regenerates every table and figure of the paper and
//! prints paper-vs-measured comparisons.
//!
//! Usage:
//!
//! ```text
//! paper_tables [--exp t1|s5|f3|f4|f8|x1|x2|x3|x4|all]
//! ```
//!
//! The X sections print deterministic counts only; wall times are
//! perfbench's job.

use ezrt_bench::{sweep_spec, SWEEP_INFEASIBLE_SEED, SWEEP_SEEDS, SWEEP_TASK_COUNTS};
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::{synthesize, BranchOrdering, PorLevel, SchedulerConfig, SynthesizeError};
use ezrt_sim::{simulate_online, OnlinePolicy};
use ezrt_spec::corpus::{figure3_spec, figure4_spec, figure8_spec, mine_pump};
use ezrt_spec::{EzSpec, SpecBuilder};
use std::time::Instant;

const POR_LEVELS: [PorLevel; 2] = [PorLevel::Off, PorLevel::Stubborn];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    match exp {
        "t1" => table_1(),
        "s5" => section_5(),
        "f3" => figure_3(),
        "f4" => figure_4(),
        "f8" => figure_8(),
        "x1" => experiment_x1(),
        "x2" => experiment_x2(),
        "x3" => experiment_x3(),
        "x4" => experiment_x4(),
        "all" => {
            table_1();
            section_5();
            figure_3();
            figure_4();
            figure_8();
            experiment_x1();
            experiment_x2();
            experiment_x3();
            experiment_x4();
        }
        other => {
            eprintln!("unknown experiment {other:?}; use t1|s5|f3|f4|f8|x1|x2|x3|x4|all");
            std::process::exit(2);
        }
    }
}

/// Table 1: the mine pump specification.
fn table_1() {
    println!("== Table 1: Specification for Mine Pump ==");
    println!(
        "{:<6} {:>11} {:>8} {:>6}",
        "task", "Computation", "Deadline", "Period"
    );
    let spec = mine_pump();
    for (_, task) in spec.tasks() {
        let t = task.timing();
        println!(
            "{:<6} {:>11} {:>8} {:>6}",
            task.name(),
            t.computation,
            t.deadline,
            t.period
        );
    }
    println!(
        "hyperperiod = {}, task instances = {}\n",
        spec.hyperperiod(),
        spec.total_instances()
    );
}

/// §5: the case-study result (states searched, minimum, time).
fn section_5() {
    println!("== Section 5: Mine pump schedule synthesis ==");
    let spec = mine_pump();
    let tasknet = translate(&spec);
    let started = Instant::now();
    let synthesis = synthesize(&tasknet, &SchedulerConfig::default()).expect("feasible");
    let elapsed = started.elapsed();
    println!("{:<26} {:>12} {:>12}", "", "paper", "this repo");
    println!(
        "{:<26} {:>12} {:>12}",
        "task instances",
        782,
        spec.total_instances()
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "states visited", 3268, synthesis.stats.states_visited
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "minimum states",
        3130,
        synthesis.stats.minimum_states()
    );
    println!(
        "{:<26} {:>12.4} {:>12.4}",
        "visited / minimum",
        3268.0 / 3130.0,
        synthesis.stats.overhead_ratio()
    );
    println!(
        "{:<26} {:>12} {:>12.0}",
        "synthesis time (ms)",
        330,
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "(paper platform: AMD Athlon 1800 MHz, 768 MB RAM, gcc 4.0.2; block encodings\n differ by a constant factor)\n"
    );
}

/// Figure 3: the precedence-relation model.
fn figure_3() {
    println!("== Figure 3: Precedence relation model ==");
    let solution = Project::new(figure3_spec())
        .synthesize()
        .expect("feasible")
        .solution;
    let net = solution.tasknet().net();
    for name in ["tr0_T1", "tr1_T2", "td0_T1", "td1_T2", "tprec_0_1"] {
        let id = net.transition_id(name).expect("figure transition");
        println!("  {:<10} interval {}", name, net.transition(id).interval());
    }
    println!("  schedule:\n{}\n", indent(&solution.gantt(0, 120)));
}

/// Figure 4: the exclusion-relation model.
fn figure_4() {
    println!("== Figure 4: Exclusion relation model ==");
    let solution = Project::new(figure4_spec())
        .synthesize()
        .expect("feasible")
        .solution;
    let net = solution.tasknet().net();
    let tr0 = net.transition_id("tr0_T0").unwrap();
    let tr2 = net.transition_id("tr1_T2").unwrap();
    let budget0 = net.post_set(tr0).iter().map(|&(_, w)| w).max().unwrap();
    let budget2 = net.post_set(tr2).iter().map(|&(_, w)| w).max().unwrap();
    println!("  unit-step computation intervals: [1, 1] (preemptive blocks)");
    println!("  budget arc weights: T0 = {budget0}, T2 = {budget2} (paper: 10 and 20)");
    println!(
        "  shared lock place: {}",
        net.place(net.place_id("pexcl_0_1").unwrap()).name()
    );
    println!("  schedule:\n{}\n", indent(&solution.gantt(0, 120)));
}

/// Figure 8: the schedule table.
fn figure_8() {
    println!("== Figure 8: Schedule table (preemptive example) ==");
    let solution = Project::new(figure8_spec())
        .synthesize()
        .expect("feasible")
        .solution;
    println!("{}", solution.table().to_c_array());
    println!(
        "{} execution parts, {} preemption(s)\n",
        solution.table().entries().len(),
        solution.timeline().preemption_count()
    );
}

/// Experiment X1: how the searched state count grows with the task count
/// on the synthetic non-preemptive sweep (the paper measures one case
/// study). Visited and minimum states are averaged over the feasible
/// seeds.
fn experiment_x1() {
    println!("== X1: state space versus task count ==");
    println!(
        "  {:<6} {:>10} {:>10} {:>9}",
        "tasks", "visited", "minimum", "feasible"
    );
    for &tasks in &SWEEP_TASK_COUNTS {
        let (mut visited, mut minimum, mut feasible) = (0u64, 0u64, 0u64);
        for &seed in &SWEEP_SEEDS {
            let tasknet = translate(&sweep_spec(tasks, seed));
            if let Ok(s) = synthesize(&tasknet, &SchedulerConfig::default()) {
                visited += s.stats.states_visited as u64;
                minimum += s.stats.minimum_states();
                feasible += 1;
            }
        }
        println!(
            "  {:<6} {:>10} {:>10} {:>7}/{}",
            tasks,
            visited.checked_div(feasible).unwrap_or(0),
            minimum.checked_div(feasible).unwrap_or(0),
            feasible,
            SWEEP_SEEDS.len()
        );
    }
    println!();
}

/// Experiment X2: the partial-order reduction (§4.4.1's state-space
/// reduction) off and on. On the mine pump the residual branching is
/// dependent grant arbitration, so both levels visit the same states;
/// the two infeasibility proofs must close the whole space, so every
/// interleaving the reduction prunes is a state the proof never pays for.
fn experiment_x2() {
    println!("== X2: partial-order reduction, off vs stubborn ==");
    println!(
        "  {:<15} {:<9} {:<11} {:>8} {:>15} {:>12}",
        "spec", "por", "verdict", "states", "stubborn-skips", "sleep-skips"
    );
    for (name, spec) in [
        ("mine_pump", mine_pump()),
        ("overload8", overload8()),
        ("sweep10_seed11", sweep_spec(10, SWEEP_INFEASIBLE_SEED)),
    ] {
        let tasknet = translate(&spec);
        for por in POR_LEVELS {
            let config = SchedulerConfig {
                por,
                ..SchedulerConfig::default()
            };
            let result = synthesize(&tasknet, &config);
            let (verdict, stats) = match &result {
                Ok(s) => ("feasible", &s.stats),
                Err(e @ SynthesizeError::Infeasible { .. }) => ("infeasible", e.stats()),
                Err(e) => ("budget", e.stats()),
            };
            println!(
                "  {:<15} {:<9} {:<11} {:>8} {:>15} {:>12}",
                name,
                por.name(),
                verdict,
                stats.states_visited,
                stats.por_stubborn_skips,
                stats.por_sleep_skips
            );
        }
    }
    println!();
}

/// Eight tasks each needing a fifth of the processor: infeasible, and
/// all eight arrive together every period.
fn overload8() -> EzSpec {
    let mut b = SpecBuilder::new("overload8");
    for i in 0..8 {
        b = b.task(format!("t{i}"), |t| {
            t.computation(2).deadline(10).period(10)
        });
    }
    b.build().expect("valid but overloaded")
}

/// Experiment X3: EDF branch ordering against naive net-order (FIFO)
/// ordering, at both reduction levels, on the 6-task sweep.
fn experiment_x3() {
    println!("== X3: branch ordering, EDF vs FIFO (6 tasks) ==");
    println!(
        "  {:<9} {:<9} {:>14} {:>7}",
        "ordering", "por", "mean visited", "solved"
    );
    let tasknets: Vec<_> = SWEEP_SEEDS
        .iter()
        .map(|&seed| translate(&sweep_spec(6, seed)))
        .collect();
    for ordering in [BranchOrdering::Edf, BranchOrdering::Fifo] {
        for por in POR_LEVELS {
            let config = SchedulerConfig {
                por,
                ordering,
                max_states: 2_000_000,
                ..SchedulerConfig::default()
            };
            let (mut visited, mut solved) = (0usize, 0usize);
            for tasknet in &tasknets {
                if let Ok(s) = synthesize(tasknet, &config) {
                    visited += s.stats.states_visited;
                    solved += 1;
                }
            }
            println!(
                "  {:<9} {:<9} {:>14} {:>5}/{}",
                format!("{ordering:?}").to_lowercase(),
                por.name(),
                visited.checked_div(solved).unwrap_or(0),
                solved,
                tasknets.len()
            );
        }
    }
    println!();
}

/// Experiment X4: pre-runtime synthesis vs. online policies on the mine
/// pump and on a utilization sweep.
fn experiment_x4() {
    println!("== X4: pre-runtime vs online scheduling ==");
    let spec = mine_pump();
    println!("mine pump (782 jobs/period, 2 periods simulated):");
    println!(
        "  {:<22} {:>10} {:>12} {:>12}",
        "scheduler", "misses", "preemptions", "jitter"
    );
    let outcome = Project::new(spec.clone()).synthesize().expect("feasible");
    let report = outcome.solution.execute_for(2);
    println!(
        "  {:<22} {:>10} {:>12} {:>12}",
        "pre-runtime (paper)",
        report.deadline_misses.len(),
        report.preemptions,
        report.max_release_jitter()
    );
    for policy in OnlinePolicy::ALL {
        let report = simulate_online(&spec, policy, 2);
        println!(
            "  {:<22} {:>10} {:>12} {:>12}",
            policy.name(),
            report.execution.deadline_misses.len(),
            report.execution.preemptions,
            report.execution.max_release_jitter()
        );
    }

    println!("\nfeasibility over utilization (6 tasks, 5 seeds each):");
    println!(
        "  {:<6} {:>12} {:>8} {:>8} {:>8}",
        "util", "pre-runtime", "edf-np", "rm-np", "dm-np"
    );
    for &util in &ezrt_bench::UTILIZATION_LEVELS {
        let mut wins = [0usize; 4];
        for &seed in &SWEEP_SEEDS {
            let spec = ezrt_bench::feasibility_spec(util, seed);
            let config = SchedulerConfig {
                max_states: 500_000,
                ..SchedulerConfig::default()
            };
            if synthesize(&translate(&spec), &config).is_ok() {
                wins[0] += 1;
            }
            for (i, policy) in [
                OnlinePolicy::EdfNonPreemptive,
                OnlinePolicy::RmNonPreemptive,
                OnlinePolicy::DmNonPreemptive,
            ]
            .iter()
            .enumerate()
            {
                if simulate_online(&spec, *policy, 1).schedulable() {
                    wins[i + 1] += 1;
                }
            }
        }
        let n = SWEEP_SEEDS.len();
        println!(
            "  {:<6} {:>10}/{} {:>6}/{} {:>6}/{} {:>6}/{}",
            util, wins[0], n, wins[1], n, wins[2], n, wins[3], n
        );
    }
    println!();
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
