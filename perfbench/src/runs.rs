//! The `pipeline` and `proofs` workloads: one thread compiling a seeded
//! pass of spec documents, over and over, cold (no cache), at
//! `--jobs 1`; then every distinct document's output is checked against
//! known answers.

use crate::check::{check_compiled, Expected, Oracle};
use crate::compile::{compile, fingerprint, probe_layers, Compiled};
use crate::inputs::SpecInput;
use crate::stats::Samples;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// What the timed loop measured and checked.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Each document's best latency over its repeats, spec bytes to
    /// checked verdict and artifacts: one value per document of the pass.
    /// Interference from the rest of the host only ever adds time, so the
    /// best of many repeats is the document's own cost; a slow stretch of
    /// the run shows in `pass_ms` instead.
    pub doc_ms: Samples,
    /// Time to compile one whole pass, per pass.
    pub pass_ms: Samples,
    /// Peak resident memory when the timed loop ended, before the
    /// checks (whose reference engine allocates its own).
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Compiles whole passes over `pass` until `seconds` have elapsed (at
/// least one pass, always ending on a pass boundary so every document
/// weighs the same), then checks each distinct document once against
/// `oracle` and every repeat against the first run's fingerprint.
pub fn timed_loop(
    pass: &[SpecInput],
    seconds: f64,
    oracle: Oracle,
    expected: &Expected,
) -> LoopResult {
    let mut result = LoopResult::default();
    let mut first: Vec<Option<Compiled>> = (0..pass.len()).map(|_| None).collect();
    let mut mismatched = vec![0usize; pass.len()];
    let mut runs = vec![0usize; pass.len()];
    let mut best_ms = vec![f64::INFINITY; pass.len()];
    let started = Instant::now();
    while result.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = 0.0;
        for (index, input) in pass.iter().enumerate() {
            let op_started = Instant::now();
            let compiled = compile(&input.xml, 1, None);
            let ms = op_started.elapsed().as_secs_f64() * 1e3;
            best_ms[index] = best_ms[index].min(ms);
            pass_ms += ms;
            result.attempted += 1;
            runs[index] += 1;
            match compiled {
                Err(error) => {
                    mismatched[index] += 1;
                    result.failures.push(format!("{}: {error}", input.label));
                }
                Ok(compiled) => match &first[index] {
                    Some(reference) if fingerprint(reference) != fingerprint(&compiled) => {
                        mismatched[index] += 1;
                        result
                            .failures
                            .push(format!("{}: output differs between runs", input.label));
                    }
                    Some(_) => {}
                    None => first[index] = Some(compiled),
                },
            }
        }
        result.pass_ms.push(pass_ms);
    }
    result.peak_rss_mb = crate::peak_rss_mb();
    for &ms in &best_ms {
        result.doc_ms.push(ms);
    }
    for (index, input) in pass.iter().enumerate() {
        let Some(compiled) = &first[index] else {
            result.failed += runs[index];
            continue;
        };
        let problems = check_compiled(&input.label, compiled, oracle, expected);
        if problems.is_empty() {
            result.failed += mismatched[index];
        } else {
            result.failed += runs[index];
            result.failures.extend(problems);
        }
    }
    result
}

/// What a traced pass measured: the spans, and the untraced and traced
/// wall time of the same documents.
#[derive(Debug)]
pub struct TracedPasses {
    pub tracer: Tracer,
    pub untraced: Duration,
    pub traced: Duration,
    pub ops: usize,
    /// States visited over the traced pass's searches.
    pub states: usize,
    /// Documents whose traced compile failed.
    pub failures: Vec<String>,
}

/// Alternates an untraced pass, a traced pass and a probe pass over
/// `pass` until `seconds` have elapsed (at least once). The traced pass
/// puts one `spec` root span around each document; the probe pass takes
/// each document through the inner layers (see [`probe_layers`]).
pub fn traced_passes(pass: &[SpecInput], seconds: f64, epoch: Instant) -> TracedPasses {
    let mut tracer = Tracer::new(epoch);
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut ops = 0;
    let mut states = 0;
    let mut failures = Vec::new();
    let started = Instant::now();
    while ops == 0 || started.elapsed().as_secs_f64() < seconds {
        let clock = Instant::now();
        for input in pass {
            let _ = std::hint::black_box(compile(&input.xml, 1, None));
        }
        untraced += clock.elapsed();
        let clock = Instant::now();
        let mut compiled = Vec::with_capacity(pass.len());
        for input in pass {
            let result = tracer.span("spec", |tracer| compile(&input.xml, 1, Some(tracer)));
            compiled.push(result);
        }
        traced += clock.elapsed();
        ops += pass.len();
        for (input, result) in pass.iter().zip(&compiled) {
            match result {
                Ok(compiled) => {
                    states += compiled.outcome.stats.states_visited;
                    probe_layers(&mut tracer, compiled);
                }
                Err(error) => failures.push(format!("{}: {error}", input.label)),
            }
        }
    }
    TracedPasses {
        tracer,
        untraced,
        traced,
        ops,
        states,
        failures,
    }
}
