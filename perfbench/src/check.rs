//! Known-answer checks. The verdict of every document is compared with
//! the value-typed reference engine (`synthesize_reference`) or with a
//! recorded expectation, never with the engine under test; every
//! feasible schedule must pass the spec-level validator and the
//! net-level replay oracle; artifacts must survive the disk codec byte
//! for byte and, where recorded, match their recorded digests.
//!
//! State counts are not known answers: a search that proves the same
//! verdict in fewer states is correct. They are exact counters, which
//! only `--counters` compares with the recorded file.

use crate::compile::{fnv64, kind_name, Compiled};
use ezrt_artifacts::{codec, render};
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::{synthesize_reference, Parallelism, SchedulerConfig, SynthesizeError};
use std::collections::BTreeMap;

/// The recorded known answers and exact counters, `key value` per line.
pub const EXPECTED_FILE: &str = "perfbench/expected.txt";
const EXPECTED: &str = include_str!("../expected.txt");

/// Where a document's verdict comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Re-derive it with the reference engine (small searches).
    Reference,
    /// Read it from the recorded file (proofs too large for the
    /// reference engine's owned-state hash set).
    Recorded,
}

/// Parsed `expected.txt`.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    pub values: BTreeMap<String, String>,
}

impl Expected {
    pub fn parse(text: &str) -> Expected {
        let values = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| line.split_once(' '))
            .map(|(key, value)| (key.to_owned(), value.trim().to_owned()))
            .collect();
        Expected { values }
    }

    pub fn recorded() -> Expected {
        Expected::parse(EXPECTED)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The verdict recorded for `label`.
    pub fn verdict(&self, label: &str) -> Result<&str, String> {
        let key = format!("verdict.{label}");
        self.get(&key)
            .ok_or_else(|| format!("no recorded verdict ({key})"))
    }
}

/// The verdict of the value-typed reference engine on `project` at
/// `--jobs 1`: `feasible` or `infeasible`.
pub fn reference_verdict(project: &Project) -> Result<&'static str, String> {
    let config = SchedulerConfig {
        parallelism: Parallelism::new(1),
        ..project.config().clone()
    };
    match synthesize_reference(&translate(project.spec()), &config) {
        Ok(_) => Ok("feasible"),
        Err(SynthesizeError::Infeasible { .. }) => Ok("infeasible"),
        Err(error) => Err(format!("reference engine gave no verdict: {error}")),
    }
}

/// Every check on one compiled document; returns one line per failure.
pub fn check_compiled(
    label: &str,
    compiled: &Compiled,
    oracle: Oracle,
    expected: &Expected,
) -> Vec<String> {
    let mut problems = Vec::new();
    let outcome = &compiled.outcome;
    let verdict = if outcome.feasible {
        "feasible"
    } else {
        "infeasible"
    };
    let wanted = match oracle {
        Oracle::Reference => reference_verdict(&compiled.project),
        Oracle::Recorded => expected.verdict(label),
    };
    match wanted {
        Ok(wanted) if wanted != verdict => {
            problems.push(format!("{label}: verdict {verdict}, expected {wanted}"))
        }
        Ok(_) => {}
        Err(error) => problems.push(format!("{label}: {error}")),
    }
    // A budget abort also reads `feasible: false`; only an exhausted
    // search is an infeasibility verdict.
    if let Some(error) = &outcome.error {
        if !error.starts_with("no feasible schedule") {
            problems.push(format!("{label}: search aborted: {error}"));
        }
    }
    if let Some(solution) = &outcome.solution {
        let violations = solution.validate();
        if !violations.is_empty() {
            problems.push(format!(
                "{label}: {} validator violations",
                violations.len()
            ));
        }
        let tasknet = translate(solution.spec());
        if let Err(error) = ezrt_sim::replay::replay(&tasknet, solution.schedule()) {
            problems.push(format!(
                "{label}: replay oracle rejects the schedule: {error}"
            ));
        }
    }
    match codec::decode_file(&codec::encode_file(outcome)) {
        Err(error) => problems.push(format!("{label}: codec round trip fails: {error}")),
        Ok(decoded) => {
            for (kind, bytes) in &compiled.artifacts {
                if render(&decoded, *kind).map(|a| a.text).as_ref() != Ok(bytes) {
                    problems.push(format!(
                        "{label}: {} differs after the codec round trip",
                        kind_name(*kind)
                    ));
                }
            }
        }
    }
    for (kind, bytes) in &compiled.artifacts {
        let key = format!("fnv64.{label}.{}", kind_name(*kind));
        if let Some(recorded) = expected.get(&key) {
            let actual = format!("{:016x}", fnv64(bytes.as_bytes()));
            if actual != recorded {
                problems.push(format!("{label}: {key} is {actual}, recorded {recorded}"));
            }
        }
    }
    problems
}
