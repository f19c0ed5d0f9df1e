//! Exact per-layer counters: deterministic counts over each workload's
//! fixed canonical inputs at `--jobs 1` (search counters, net and state
//! sizes, artifact bytes, warm-start reuse). They repeat exactly on
//! every run and every host, so `--counters` can diff them against the
//! recorded values and fail on drift.

use crate::compile::{compile, fnv64, kind_name, Compiled};
use crate::inputs::{families, family_instance, local_edit, pipeline_pass, proofs_pass, Rng};
use crate::inputs::{FAMILY_STATES, PUMP_EDIT_STATES};
use ezrt_artifacts::{compute_outcome, compute_outcome_incremental, project_digest, ArtifactKind};
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::SearchStats;
use ezrt_spec::corpus::mine_pump;
use ezrt_tpn::StateLayout;
use std::collections::BTreeMap;

pub type Counters = BTreeMap<String, u64>;

/// Every exact counter name, in report order.
pub const NAMES: [&str; 17] = [
    "compose.places",
    "compose.transitions",
    "tpn.bytes_per_state",
    "scheduler.states_visited",
    "scheduler.firings",
    "scheduler.backtracks",
    "scheduler.dead_set_bytes",
    "scheduler.por_stubborn_skips",
    "scheduler.por_sleep_skips",
    "artifacts.bytes.report-json",
    "artifacts.bytes.table",
    "artifacts.bytes.codegen",
    "artifacts.bytes.gantt",
    "artifacts.bytes.pnml",
    "incr.seed_hits",
    "incr.replayed",
    "incr.fresh_states",
];

/// Counters that are not exact: the report carries wall-time fields
/// whose digit count varies, so its size is reported but never diffed.
pub const INEXACT: [&str; 1] = ["artifacts.bytes.report-json"];

fn empty() -> Counters {
    NAMES.iter().map(|name| ((*name).to_owned(), 0)).collect()
}

fn add(counters: &mut Counters, name: &str, value: usize) {
    *counters.get_mut(name).expect("a listed counter") += value as u64;
}

fn raise(counters: &mut Counters, name: &str, value: usize) {
    let slot = counters.get_mut(name).expect("a listed counter");
    *slot = (*slot).max(value as u64);
}

fn add_search(counters: &mut Counters, stats: &SearchStats) {
    add(counters, "scheduler.states_visited", stats.states_visited);
    add(counters, "scheduler.firings", stats.schedule_length);
    add(counters, "scheduler.backtracks", stats.backtracks);
    raise(counters, "scheduler.dead_set_bytes", stats.dead_set_bytes);
    add(
        counters,
        "scheduler.por_stubborn_skips",
        stats.por_stubborn_skips,
    );
    add(counters, "scheduler.por_sleep_skips", stats.por_sleep_skips);
}

/// The largest net of the set: IR sizes and the packed state size
/// (`layout().words() × 4` bytes).
fn add_net(counters: &mut Counters, project: &Project) {
    let tasknet = translate(project.spec());
    let net = tasknet.net();
    raise(counters, "compose.places", net.place_count());
    raise(counters, "compose.transitions", net.transition_count());
    raise(
        counters,
        "tpn.bytes_per_state",
        StateLayout::of(net).words() * 4,
    );
}

fn add_compiled(counters: &mut Counters, compiled: &Compiled) {
    add_net(counters, &compiled.project);
    add_search(counters, &compiled.outcome.stats);
    for (kind, bytes) in &compiled.artifacts {
        add(
            counters,
            &format!("artifacts.bytes.{}", kind_name(*kind)),
            bytes.len(),
        );
    }
}

fn compile_all(inputs: &[crate::inputs::SpecInput]) -> (Counters, Vec<(String, Compiled)>) {
    let mut counters = empty();
    let mut compiled = Vec::with_capacity(inputs.len());
    for input in inputs {
        let result = compile(&input.xml, 1, None).expect("canonical inputs parse");
        add_compiled(&mut counters, &result);
        compiled.push((input.label.clone(), result));
    }
    (counters, compiled)
}

/// `pipeline`'s canonical inputs: its seed-0 pass.
pub fn pipeline() -> Counters {
    compile_all(&pipeline_pass(0)).0
}

/// `proofs`' canonical inputs: the proof set (order does not change a
/// sum), with each proof's verdict (a known answer the timed runs check)
/// and its state count (an exact counter only `--counters` compares).
pub fn proofs_with_answers() -> (Counters, BTreeMap<String, String>) {
    let (counters, compiled) = compile_all(&proofs_pass(0));
    let mut answers = BTreeMap::new();
    for (label, result) in &compiled {
        let verdict = if result.outcome.feasible {
            "feasible"
        } else {
            "infeasible"
        };
        answers.insert(format!("verdict.{label}"), verdict.to_owned());
        answers.insert(
            format!("states_visited.{label}"),
            result.outcome.stats.states_visited.to_string(),
        );
    }
    (counters, answers)
}

/// Number of warm-started edits in `serve_edit`'s canonical chain.
const CHAIN_EDITS: usize = 14;

/// `serve_edit`'s canonical inputs: a seed-0 chain of local edits of the
/// mine pump and the six families, each warm-started in process from
/// its base's cold outcome, as the service's ancestor index would. The
/// `scheduler.*` counters are those of each edit's cold search, the
/// `incr.*` ones those of its warm start, so `incr.fresh_states` against
/// `scheduler.states_visited` is what the warm starts save.
pub fn serve_edit() -> Counters {
    let mut counters = empty();
    let mut rng = Rng::new(0);
    let mut bases = vec![mine_pump()];
    bases.extend(
        families()
            .iter()
            .map(|family| family_instance(family, &mut rng)),
    );
    let cold: Vec<_> = bases
        .iter()
        .map(|spec| {
            let project = Project::new(spec.clone());
            let digest = project_digest(&project);
            compute_outcome(&project, digest)
        })
        .collect();
    add_net(&mut counters, &Project::new(bases[0].clone()));
    let mut seen = std::collections::HashSet::new();
    for i in 0..CHAIN_EDITS {
        let base = i % bases.len();
        let budget = if base == 0 {
            PUMP_EDIT_STATES
        } else {
            FAMILY_STATES
        };
        let (_, edited) = local_edit(&bases[base], budget, &mut rng, &mut seen);
        let project = Project::new(edited);
        let digest = project_digest(&project);
        add_search(&mut counters, &compute_outcome(&project, digest).stats);
        let warm = compute_outcome_incremental(&project, digest, &cold[base]);
        add(&mut counters, "incr.seed_hits", warm.stats.incr_seed_hits);
        add(&mut counters, "incr.replayed", warm.stats.incr_replayed);
        add(
            &mut counters,
            "incr.fresh_states",
            warm.stats.states_visited,
        );
    }
    counters
}

/// The mine pump's artifact digests, recorded as known answers.
pub fn pump_digests() -> BTreeMap<String, String> {
    let xml = Project::new(mine_pump()).to_dsl();
    let compiled = compile(&xml, 1, None).expect("the mine pump parses");
    compiled
        .artifacts
        .iter()
        .filter(|(kind, _)| *kind != ArtifactKind::ReportJson)
        .map(|(kind, bytes)| {
            (
                format!("fnv64.mine-pump.{}", kind_name(*kind)),
                format!("{:016x}", fnv64(bytes.as_bytes())),
            )
        })
        .collect()
}

/// Counters of `workload`'s canonical inputs.
pub fn for_workload(workload: &str) -> Counters {
    match workload {
        "pipeline" => pipeline(),
        "proofs" => proofs_with_answers().0,
        _ => serve_edit(),
    }
}

/// The whole recorded file: known answers, then every workload's
/// counters under `counter.<workload>.<name>`.
pub fn regenerate() -> BTreeMap<String, String> {
    let mut file = pump_digests();
    let (proofs, answers) = proofs_with_answers();
    file.extend(answers);
    for (workload, counters) in [
        ("pipeline", pipeline()),
        ("proofs", proofs),
        ("serve_edit", serve_edit()),
    ] {
        for (name, value) in counters {
            if INEXACT.contains(&name.as_str()) {
                continue;
            }
            file.insert(format!("counter.{workload}.{name}"), value.to_string());
        }
    }
    file
}
