//! Seeded workload inputs. Every spec reaches the program as DSL text
//! (`<rt:ez-spec>` XML), the bytes a user would hand the CLI or POST to
//! the service; the same seed always gives the same documents.

use ezrt_bench::{sweep_spec, SWEEP_FEASIBLE_SEED, SWEEP_INFEASIBLE_SEED};
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::{synthesize, SchedulerConfig, SynthesizeError};
use ezrt_spec::corpus::mine_pump;
use ezrt_spec::generate::{
    family_spec, random_mutation, synthetic_spec, Family, Mutation, WorkloadConfig,
};
use ezrt_spec::EzSpec;
use std::collections::HashSet;

/// SplitMix64: a small, fully specified generator, so the inputs of a
/// seed never depend on another crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated input: a label for reports and the DSL document.
#[derive(Debug, Clone)]
pub struct SpecInput {
    pub label: String,
    pub xml: String,
}

impl SpecInput {
    pub fn new(label: impl Into<String>, spec: &EzSpec) -> SpecInput {
        SpecInput {
            label: label.into(),
            xml: Project::new(spec.clone()).to_dsl(),
        }
    }
}

/// The six spec families at sizes whose searches stay in the tens of
/// states (near-harmonic in the low thousands), so the compile path
/// around the search carries weight.
pub fn families() -> [Family; 6] {
    [
        Family::Harmonic {
            tasks: 5,
            base_period: 10,
            utilization: 0.6,
        },
        Family::NearHarmonic {
            tasks: 3,
            base_period: 10,
            utilization: 0.5,
        },
        Family::PrecedenceChain {
            length: 4,
            period: 40,
            utilization: 0.6,
        },
        Family::PrecedenceDiamond {
            width: 3,
            period: 40,
            utilization: 0.6,
        },
        Family::ExclusionClique {
            tasks: 4,
            period: 40,
            utilization: 0.6,
        },
        Family::Multiprocessor {
            tasks: 6,
            processors: 2,
            period: 40,
            utilization: 1.0,
        },
    ]
}

/// Whether `spec`'s search ends (feasible or proven infeasible) within
/// `budget` states.
fn within_budget(spec: &EzSpec, budget: usize) -> bool {
    let config = SchedulerConfig {
        max_states: budget,
        ..SchedulerConfig::default()
    };
    matches!(
        synthesize(&translate(spec), &config),
        Ok(_) | Err(SynthesizeError::Infeasible { .. })
    )
}

/// States an edit of the mine pump (4,709 states) may visit.
pub const PUMP_EDIT_STATES: usize = 5_500;
/// States a family spec may visit.
pub const FAMILY_STATES: usize = 3_000;

/// A `random_mutation` edit of `base` whose search stays within
/// `budget` states. Period scaling and added precedences are redrawn,
/// and so is any edit past the budget: on the mine pump, one deadline
/// cut in a few dozen turns a 4.7k-state search into a
/// multi-million-state one (seconds and gigabytes), which is the
/// `proofs` workload's job, not an edit-loop step's.
///
/// An edit already in `seen` (keyed by base name and edit) is redrawn
/// before it is screened, so every returned edit is new.
pub fn local_edit(
    base: &EzSpec,
    budget: usize,
    rng: &mut Rng,
    seen: &mut HashSet<String>,
) -> (Mutation, EzSpec) {
    for _ in 0..MAX_EDIT_DRAWS {
        let mutation = random_mutation(base, rng.next_u64());
        if matches!(
            mutation,
            Mutation::ScalePeriods { .. } | Mutation::AddPrecedence { .. }
        ) || !seen.insert(format!("{}/{mutation:?}", base.name()))
        {
            continue;
        }
        if let Ok(spec) = mutation.apply(base) {
            if within_budget(&spec, budget) {
                return (mutation, spec);
            }
        }
    }
    panic!(
        "no new local edit of {} within {budget} states",
        base.name()
    );
}

/// Draws after which [`local_edit`] gives up: the base's edit space is
/// exhausted, a bug in the workload's sizing.
const MAX_EDIT_DRAWS: usize = 100_000;

/// An instance of `family` whose search stays within [`FAMILY_STATES`].
pub fn family_instance(family: &Family, rng: &mut Rng) -> EzSpec {
    loop {
        let spec = family_spec(family, rng.next_u64());
        if within_budget(&spec, FAMILY_STATES) {
            return spec;
        }
    }
}

/// Mine-pump documents (the pump itself and its edits) in one
/// `pipeline` pass.
pub const PIPELINE_PUMP_SPECS: usize = 24;
/// Family documents in one `pipeline` pass.
pub const PIPELINE_FAMILY_SPECS: usize = 72;

/// The `pipeline` pass for `seed`: the mine pump, local edits of it and
/// family specs from all six families, in a seeded order. A quarter of
/// the documents are pump-sized (~4.7k states), three quarters family
/// sized, so the median lands on the compile path of small specs and
/// the 90th percentile on the pump.
pub fn pipeline_pass(seed: u64) -> Vec<SpecInput> {
    let mut rng = Rng::new(seed);
    let pump = mine_pump();
    let mut pass = vec![SpecInput::new("mine-pump", &pump)];
    let mut seen = HashSet::new();
    while pass.len() < PIPELINE_PUMP_SPECS {
        let (mutation, spec) = local_edit(&pump, PUMP_EDIT_STATES, &mut rng, &mut seen);
        pass.push(SpecInput::new(format!("pump/{mutation:?}"), &spec));
    }
    let families = families();
    for i in 0..PIPELINE_FAMILY_SPECS {
        let spec = family_instance(&families[i % families.len()], &mut rng);
        pass.push(SpecInput::new(spec.name().to_owned(), &spec));
    }
    rng.shuffle(&mut pass);
    pass
}

/// One 10-task overload shape of the partial-order-reduction summary.
fn overload(utilization: f64, exclusion: f64) -> EzSpec {
    synthetic_spec(
        &WorkloadConfig {
            tasks: 10,
            total_utilization: utilization,
            periods: vec![20, 40, 80],
            precedence_probability: 0.3,
            exclusion_probability: exclusion,
            constrained_deadlines: true,
            ..WorkloadConfig::default()
        },
        42,
    )
}

/// The fixed set of `proofs` specs: the three 10-task overload shapes
/// (seed 42), the infeasible sweep seed and the deep feasible sweep
/// seed. Each is a full state-space search of 275k–460k states.
pub fn proof_specs() -> Vec<(String, EzSpec)> {
    vec![
        ("sweep10_u0.80".to_owned(), overload(0.80, 0.4)),
        ("sweep10_u0.90".to_owned(), overload(0.90, 0.5)),
        ("sweep10_u0.95".to_owned(), overload(0.95, 0.6)),
        (
            format!("sweep10_seed{SWEEP_INFEASIBLE_SEED}"),
            sweep_spec(10, SWEEP_INFEASIBLE_SEED),
        ),
        (
            format!("sweep10_seed{SWEEP_FEASIBLE_SEED}"),
            sweep_spec(10, SWEEP_FEASIBLE_SEED),
        ),
    ]
}

/// The `proofs` pass for `seed`: the fixed proof set in a seeded order.
pub fn proofs_pass(seed: u64) -> Vec<SpecInput> {
    let mut pass: Vec<SpecInput> = proof_specs()
        .iter()
        .map(|(label, spec)| SpecInput::new(label.clone(), spec))
        .collect();
    Rng::new(seed).shuffle(&mut pass);
    pass
}

/// `spec` under another name: the same search, a different digest.
pub fn renamed(spec: &EzSpec, name: &str) -> SpecInput {
    let xml = Project::new(spec.clone()).to_dsl();
    let from = format!("name=\"{}\"", spec.name());
    assert!(
        xml.contains(&from),
        "the DSL names the spec in a name attribute"
    );
    SpecInput {
        label: name.to_owned(),
        xml: xml.replacen(&from, &format!("name=\"{name}\""), 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_deterministic_per_seed() {
        let a = pipeline_pass(7);
        let b = pipeline_pass(7);
        assert_eq!(a.len(), PIPELINE_PUMP_SPECS + PIPELINE_FAMILY_SPECS);
        assert!(a.iter().zip(&b).all(|(x, y)| x.xml == y.xml));
        let c = pipeline_pass(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.xml != y.xml));
        assert_eq!(proofs_pass(3).len(), 5);
    }

    #[test]
    fn renaming_changes_only_the_name() {
        let pump = mine_pump();
        let input = renamed(&pump, "other");
        let project = Project::from_dsl(&input.xml).expect("renamed spec parses");
        assert_eq!(project.spec().name(), "other");
        assert_eq!(project.spec().task_count(), pump.task_count());
    }
}
