//! The ezRealtime benchmark: seeded workloads through the crates' public
//! API, every output checked against known answers, every metric printed
//! by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|proofs|serve_edit --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --counters
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. `--counters` regenerates the exact counters and known
//! answers, prints the recorded file's new content on stdout and exits
//! non-zero if any differs from `perfbench/expected.txt`. The last
//! stdout line of a workload run is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (`{name: {value, unit}}`);
//! human-readable detail goes to stderr.

mod check;
mod compile;
mod counters;
mod http;
mod inputs;
mod layers;
mod runs;
mod serve;
mod stats;
mod trace;

use check::{Expected, Oracle};
use stats::Samples;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every workload reports with tracing off. For
/// `serve_edit` a "spec" is one edit POST: spec bytes to a verdict over
/// HTTP.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("specs_per_s", "1/s"),
    ("spec_ms_p50", "ms"),
    ("spec_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

pub const WORKLOADS: [&str; 3] = ["pipeline", "proofs", "serve_edit"];

/// Set-up is repeated at least this many times per run and the median
/// reported; cheap set-ups repeat until [`SETUP_MIN_SECONDS`] have been
/// spent (at most [`SETUP_MAX_REPEATS`] times), so a sub-millisecond
/// set-up is still a median of many.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 10_000;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    counters: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        counters: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--counters" => args.counters = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.counters && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The result line and the human-readable notes that go with it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` repeatedly (see [`SETUP_REPEATS`]) and returns the last
/// result with the median set-up time; the spread of the repeats goes
/// to `notes`. The first repetition is timed from `first_start`.
fn repeated_setup<T>(
    what: &str,
    notes: &mut Vec<String>,
    first_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Samples::new();
    let mut last = None;
    let spent = Instant::now();
    while times.len() < SETUP_REPEATS
        || (spent.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        let started = if last.is_none() {
            first_start
        } else {
            Instant::now()
        };
        let value = setup()?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(value) {
            discard(previous);
        }
    }
    notes.push(format!(
        "set-up {what}: {} repeats, ms min {:.4}, median {:.4}, max {:.4}",
        times.len(),
        times.percentile(0.0) * 1e3,
        times.median() * 1e3,
        times.percentile(100.0) * 1e3
    ));
    Ok((last.expect("at least one repeat"), times.median()))
}

/// The per-spec metrics. Throughput counts whole *rounds* only — one
/// pass, or one write cycle — whose input mix is the same every round,
/// and is their specs over their summed time: the host's speed drifts
/// over tens of seconds, and a mean weighs a run's fast and slow
/// stretches by their length where a median round would take whichever
/// held the majority.
///
/// The latency percentiles are taken over `latencies`, described by
/// `latencies_are`. `spec_ms_p90` reports the highest percentile up to
/// p90 with enough samples beyond it (see
/// [`Samples::supported_percentile`]).
fn spec_metrics(
    report: &mut Report,
    latencies: &mut Samples,
    rounds_ms: &mut Samples,
    per_round: usize,
    what: &str,
    latencies_are: &str,
) {
    let round_ms = rounds_ms.median();
    report.set(
        "specs_per_s",
        (per_round * rounds_ms.len()) as f64 / (rounds_ms.sum() / 1e3).max(1e-9),
        "1/s",
    );
    report.set("spec_ms_p50", latencies.median(), "ms");
    let (p, value) = latencies.supported_percentile(90.0);
    report.set("spec_ms_p90", value, "ms");
    report.notes.push(format!(
        "{} rounds of {per_round} {what} (round ms: min {:.3}, median {round_ms:.3}, max {:.3}); \
         latencies over {} {latencies_are}; spec_ms_p90 reports p{p} ({} beyond it)",
        rounds_ms.len(),
        rounds_ms.percentile(0.0),
        rounds_ms.percentile(100.0),
        latencies.len(),
        latencies.beyond(p)
    ));
}

fn run_specs(args: &Args, process_start: Instant) -> Result<Report, String> {
    let (pass, oracle) = match args.workload.as_str() {
        "pipeline" => (
            inputs::pipeline_pass as fn(u64) -> Vec<inputs::SpecInput>,
            Oracle::Reference,
        ),
        _ => (inputs::proofs_pass as fn(u64) -> _, Oracle::Recorded),
    };
    let mut report = Report::default();
    let ((pass, expected), setup_s) = repeated_setup(
        "of the pass",
        &mut report.notes,
        process_start,
        || Ok((pass(args.seed), Expected::recorded())),
        drop,
    )?;
    if args.trace {
        layers::spec_layers(&args.workload, &pass, args.seconds, &expected, &mut report);
        return Ok(report);
    }
    report.set("setup_s", setup_s, "s");
    let mut result = runs::timed_loop(&pass, args.seconds, oracle, &expected);
    spec_metrics(
        &mut report,
        &mut result.doc_ms,
        &mut result.pass_ms,
        pass.len(),
        "specs",
        "per-document bests",
    );
    report.set("peak_rss_mb", result.peak_rss_mb, "MB");
    report.attempted = result.attempted;
    report.failed = result.failed;
    report.failures = result.failures;
    Ok(report)
}

fn run_serve(args: &Args, process_start: Instant) -> Result<Report, String> {
    let expected = Expected::recorded();
    let mut report = Report::default();
    if args.trace {
        let inputs = serve::generate(args.seed)?;
        layers::serve_layers(&inputs, args.seconds, &expected, &mut report)?;
        serve::check_residents(&inputs, &expected, &mut report);
        return Ok(report);
    }
    // Spec generation and the service start (with its warm-up) are each
    // repeated; set-up is the sum of their medians.
    let (inputs, generate_s) = repeated_setup(
        "generation",
        &mut report.notes,
        process_start,
        || serve::generate(args.seed),
        drop,
    )?;
    let (setup, start_s) = repeated_setup(
        "server start",
        &mut report.notes,
        Instant::now(),
        || serve::start(&inputs),
        serve::Setup::teardown,
    )?;
    report.set("setup_s", generate_s + start_s, "s");
    let phase = serve::run_phase(&setup, args.seconds, &expected, None);
    setup.teardown();
    serve::check_residents(&inputs, &expected, &mut report);
    let mut phase = phase?;
    let mut cycles_ms = Samples::new();
    for cycle in phase.writes.chunks_exact(serve::PROOF_EVERY) {
        cycles_ms.push(cycle.iter().map(|write| write.1).sum());
    }
    spec_metrics(
        &mut report,
        &mut phase.write_ms,
        &mut cycles_ms,
        serve::PROOF_EVERY,
        "edit writes",
        "edit writes",
    );
    report
        .notes
        .extend(serve::write_notes(&inputs, &phase.writes));
    report.set("peak_rss_mb", phase.peak_rss_mb, "MB");
    let reads = &mut phase.reads;
    report.notes.push(format!(
        "{} reads at {} /s: p50 {:.3} ms, p99 {:.3} ms from due time; generator late by at most {:.3} ms",
        reads.latency_ms.len(),
        serve::READ_RATE,
        reads.latency_ms.median(),
        reads.latency_ms.percentile(99.0),
        reads.late_ms_max
    ));
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    report.failures.extend(phase.failures);
    Ok(report)
}

/// `--counters`: regenerate, print, diff.
fn run_counters() -> ExitCode {
    let regenerated = counters::regenerate();
    let recorded = Expected::recorded().values;
    println!("# Known answers and exact counters at --jobs 1; regenerate with");
    println!("# `cargo run --release --manifest-path perfbench/Cargo.toml -- --counters`.");
    for (key, value) in &regenerated {
        println!("{key} {value}");
    }
    let keys: std::collections::BTreeSet<&String> =
        regenerated.keys().chain(recorded.keys()).collect();
    let mut drift = 0;
    for key in keys {
        let (now, then) = (regenerated.get(key), recorded.get(key));
        if now != then {
            drift += 1;
            eprintln!("drift: {key}: recorded {then:?}, now {now:?}");
        }
    }
    if drift == 0 {
        eprintln!("exact counters match {}", check::EXPECTED_FILE);
        ExitCode::SUCCESS
    } else {
        eprintln!("{drift} values drifted from {}", check::EXPECTED_FILE);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if args.counters {
        return run_counters();
    }
    let result = if args.workload == "serve_edit" {
        run_serve(&args, process_start)
    } else {
        run_specs(&args, process_start)
    };
    let report = match result {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} trace {} on {} cores",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for (name, (value, unit)) in &report.metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    for failure in report.failures.iter().take(20) {
        eprintln!("  FAILED: {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
