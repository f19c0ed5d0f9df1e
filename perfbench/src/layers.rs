//! The traced run: per-layer metrics from bench-side spans, the exact
//! counters of each workload's canonical inputs, the tracing overhead
//! and how much of the end-to-end wall time the layers account for.
//!
//! Every traced run reports every per-layer metric; a layer the
//! workload does not exercise reads 0 (`http` on `pipeline`, `render`
//! on most of `proofs`, `scheduler.parallel_*` outside `proofs`).

use crate::check::Expected;
use crate::counters;
use crate::inputs::SpecInput;
use crate::runs::traced_passes;
use crate::serve::{self, ReadClass};
use crate::stats::Samples;
use crate::trace::{by_layer, LayerTime};
use crate::Report;
use ezrt_compose::translate;
use ezrt_core::Project;
use ezrt_scheduler::{synthesize_parallel, Parallelism, SchedulerConfig, SynthesizeError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric with its unit.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("dsl.parse_ms", "ms"),
    ("digest.ms", "ms"),
    ("compose.translate_ms", "ms"),
    ("compose.places", "count"),
    ("compose.transitions", "count"),
    ("tpn.bytes_per_state", "B"),
    ("scheduler.search_ms", "ms"),
    ("scheduler.ns_per_state", "ns"),
    ("scheduler.states_visited", "count"),
    ("scheduler.firings", "count"),
    ("scheduler.backtracks", "count"),
    ("scheduler.dead_set_bytes", "B"),
    ("scheduler.por_stubborn_skips", "count"),
    ("scheduler.por_sleep_skips", "count"),
    ("scheduler.validate_ms", "ms"),
    ("scheduler.parallel_speedup", "ratio"),
    ("scheduler.parallel_states_ratio", "ratio"),
    ("scheduler.steals", "count"),
    ("sim.replay_ms", "ms"),
    ("timeline.derive_ms", "ms"),
    ("codegen.table_ms", "ms"),
    ("artifacts.fields_ms", "ms"),
    ("artifacts.package_ms", "ms"),
    ("artifacts.render_ms.report-json", "ms"),
    ("artifacts.render_ms.table", "ms"),
    ("artifacts.render_ms.codegen", "ms"),
    ("artifacts.render_ms.gantt", "ms"),
    ("artifacts.render_ms.pnml", "ms"),
    ("artifacts.bytes.report-json", "B"),
    ("artifacts.bytes.table", "B"),
    ("artifacts.bytes.codegen", "B"),
    ("artifacts.bytes.gantt", "B"),
    ("artifacts.bytes.pnml", "B"),
    ("artifacts.encode_ms", "ms"),
    ("artifacts.decode_ms", "ms"),
    ("incr.warm_ms", "ms"),
    ("incr.seed_hits", "count"),
    ("incr.replayed", "count"),
    ("incr.fresh_states", "count"),
    ("cache.hit_share", "ratio"),
    ("cache.misses", "count"),
    ("cache.joined", "count"),
    ("rendered.hit_share", "ratio"),
    ("cache.lookup_us", "us"),
    ("http.rtt_ms_p50.hit", "ms"),
    ("http.rtt_ms_p50.not-modified", "ms"),
    ("http.rtt_ms_p50.artifact-get", "ms"),
    ("http.rtt_ms_p50.healthz", "ms"),
    ("http.rtt_ms_p50.miss", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.bytes_per_read", "B"),
    ("serve.read_ms_p50", "ms"),
    ("serve.read_ms_p99", "ms"),
    ("serve.write_ms_p50", "ms"),
    ("gen.late_ms_max", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.residual_ms", "ms"),
    ("run.nproc", "count"),
];

fn set(report: &mut Report, name: &str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(metric, _)| *metric == name)
        .map(|(_, unit)| *unit)
        .expect("a listed per-layer metric");
    report.set(name, value, unit);
}

fn init(report: &mut Report) {
    for (name, unit) in PER_LAYER {
        report.set(name, 0.0, unit);
    }
    set(report, "run.nproc", nproc() as f64);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Layers(BTreeMap<String, LayerTime>);

impl Layers {
    fn get(&self, name: &str) -> LayerTime {
        self.0.get(name).copied().unwrap_or_default()
    }

    fn ms_per_call(&self, name: &str) -> f64 {
        self.get(name).self_ms_per_call()
    }

    /// Summed self time of `names`, in nanoseconds.
    fn self_ns(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.get(name).self_ns as f64).sum()
    }
}

fn set_counters(report: &mut Report, workload: &str) {
    for (name, value) in counters::for_workload(workload) {
        set(report, &name, value as f64);
    }
}

/// Names the largest residual and reports coverage and residual per op.
fn set_coverage(
    report: &mut Report,
    attributed_ns: f64,
    wall_ns: f64,
    ops: usize,
    residuals: &[(&str, f64)],
) {
    set(report, "trace.coverage", attributed_ns / wall_ns.max(1.0));
    let (name, ns) =
        residuals
            .iter()
            .copied()
            .fold(("none", 0.0), |best, r| if r.1 > best.1 { r } else { best });
    set(report, "trace.residual_ms", ns / 1e6 / ops.max(1) as f64);
    report.notes.push(format!(
        "coverage {:.3} of {:.1} ms traced wall; largest residual: {name} ({:.3} ms per op)",
        attributed_ns / wall_ns.max(1.0),
        wall_ns / 1e6,
        ns / 1e6 / ops.max(1) as f64
    ));
    for (name, ns) in residuals {
        report.notes.push(format!(
            "  residual {name}: {:.3} ms per op",
            ns / 1e6 / ops.max(1) as f64
        ));
    }
}

const RENDER_SPANS: [&str; 5] = [
    "artifacts.render.report-json",
    "artifacts.render.table",
    "artifacts.render.codegen",
    "artifacts.render.gantt",
    "artifacts.render.pnml",
];

/// The layers `compute_outcome` runs, as probed one call at a time.
const INNER_SPANS: [&str; 6] = [
    "compose.translate",
    "scheduler.search",
    "timeline.derive",
    "codegen.table",
    "sim.replay",
    "artifacts.fields",
];

/// The traced run of `pipeline` and `proofs`.
pub fn spec_layers(
    workload: &str,
    pass: &[SpecInput],
    seconds: f64,
    expected: &Expected,
    report: &mut Report,
) {
    init(report);
    let epoch = Instant::now();
    let traced = traced_passes(pass, seconds, epoch);
    report.attempted = traced.ops;
    report.failed = traced.failures.len();
    report.failures.extend(traced.failures.iter().cloned());
    let layers = Layers(by_layer(&traced.tracer.into_spans()));

    for (metric, span) in [
        ("dsl.parse_ms", "dsl.parse"),
        ("digest.ms", "digest"),
        ("compose.translate_ms", "compose.translate"),
        ("scheduler.search_ms", "scheduler.search"),
        ("scheduler.validate_ms", "scheduler.validate"),
        ("sim.replay_ms", "sim.replay"),
        ("timeline.derive_ms", "timeline.derive"),
        ("codegen.table_ms", "codegen.table"),
        ("artifacts.fields_ms", "artifacts.fields"),
        ("artifacts.encode_ms", "artifacts.encode"),
        ("artifacts.decode_ms", "artifacts.decode"),
    ] {
        set(report, metric, layers.ms_per_call(span));
    }
    for span in RENDER_SPANS {
        let metric = span.replace("artifacts.render.", "artifacts.render_ms.");
        set(report, &metric, layers.ms_per_call(span));
    }
    set(
        report,
        "artifacts.package_ms",
        layers.ms_per_call("artifacts.compute_outcome") - layers.ms_per_call("core.synthesize"),
    );
    set(
        report,
        "scheduler.ns_per_state",
        layers.get("scheduler.search").self_ns as f64 / traced.states.max(1) as f64,
    );

    let wall_ns = layers.get("spec").total_ns as f64;
    let path_ns = layers.self_ns(&["dsl.parse", "digest"]) + layers.self_ns(&RENDER_SPANS);
    let inner_ns = layers.self_ns(&INNER_SPANS);
    let synthesize_parts = layers.self_ns(&INNER_SPANS[..4]);
    set_coverage(
        report,
        path_ns + inner_ns,
        wall_ns,
        traced.ops,
        &[
            (
                "compute_outcome beyond its probed layers (package glue)",
                layers.get("artifacts.compute_outcome").self_ns as f64 - inner_ns,
            ),
            (
                "Project::synthesize beyond translate/search/derive/table",
                layers.get("core.synthesize").self_ns as f64 - synthesize_parts,
            ),
            (
                "bench loop between spans",
                layers.get("spec").self_ns as f64,
            ),
        ],
    );
    set(
        report,
        "obs.trace_overhead",
        traced.traced.as_secs_f64() / traced.untraced.as_secs_f64().max(1e-9),
    );
    set_counters(report, workload);
    if workload == "proofs" {
        // The `--jobs 1` side of the gate is the traced passes' own
        // search probes, per pass.
        let passes = (traced.ops / pass.len().max(1)).max(1) as f64;
        let sequential = (
            layers.get("scheduler.search").total_ns as f64 / 1e9 / passes,
            traced.states as f64 / passes,
        );
        parallel_gate(pass, sequential, expected, report);
    }
}

/// The proofs once more at `--jobs nproc`, against `sequential` (seconds
/// and states of one `--jobs 1` pass): the data for the decision whether
/// the parallel engine earns its code. Each verdict is checked against
/// the recorded one.
fn parallel_gate(
    pass: &[SpecInput],
    (sequential_s, sequential_states): (f64, f64),
    expected: &Expected,
    report: &mut Report,
) {
    let jobs = nproc();
    let mut parallel_s = 0.0;
    let (mut parallel_states, mut steals) = (0usize, 0usize);
    for input in pass {
        report.attempted += 1;
        let Ok(project) = Project::from_dsl(&input.xml) else {
            report.failed += 1;
            report
                .failures
                .push(format!("{}: does not parse", input.label));
            continue;
        };
        let tasknet = translate(project.spec());
        let config = SchedulerConfig {
            parallelism: Parallelism::new(jobs),
            ..project.config().clone()
        };
        let clock = Instant::now();
        let parallel = synthesize_parallel(&tasknet, &config);
        parallel_s += clock.elapsed().as_secs_f64();
        let (stats, verdict) = match &parallel {
            Ok(synthesis) => (&synthesis.stats, "feasible"),
            Err(error @ SynthesizeError::Infeasible { .. }) => (error.stats(), "infeasible"),
            Err(error) => (error.stats(), "no verdict"),
        };
        parallel_states += stats.states_visited;
        steals += stats.steals;
        let wanted = expected.verdict(&input.label);
        if wanted != Ok(verdict) {
            report.failed += 1;
            report.failures.push(format!(
                "{}: --jobs {jobs} gives {verdict}, expected {wanted:?}",
                input.label
            ));
        }
    }
    set(
        report,
        "scheduler.parallel_speedup",
        sequential_s / parallel_s.max(1e-9),
    );
    set(
        report,
        "scheduler.parallel_states_ratio",
        parallel_states as f64 / sequential_states.max(1.0),
    );
    set(report, "scheduler.steals", steals as f64);
    report.notes.push(format!(
        "parallel gate at --jobs {jobs}: {sequential_s:.3} s sequential vs {parallel_s:.3} s parallel per pass"
    ));
}

/// The traced run of `serve_edit`: an untraced and a traced phase of
/// half the run each, on fresh services with the same inputs, then
/// in-process probes of the traced phase's writes.
pub fn serve_layers(
    inputs: &serve::Inputs,
    seconds: f64,
    expected: &Expected,
    report: &mut Report,
) -> Result<(), String> {
    init(report);
    let half = seconds / 2.0;
    let setup = serve::start(inputs)?;
    let untraced = serve::run_phase(&setup, half, expected, None);
    setup.teardown();
    let untraced = untraced?;

    let epoch = Instant::now();
    let setup = serve::start(inputs)?;
    let traced = serve::run_phase(&setup, half, expected, Some(epoch)).map(|phase| {
        let probes = serve::probe(&setup, &phase, epoch);
        (phase, probes)
    });
    setup.teardown();
    let (mut traced, probes) = traced?;

    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    report.failures.extend(untraced.failures.iter().cloned());
    report.failures.extend(traced.failures.iter().cloned());

    for class in ReadClass::ALL {
        let rtt = traced
            .rtt_ms
            .get_mut(class.name())
            .map_or(0.0, Samples::median);
        set(report, &format!("http.rtt_ms_p50.{}", class.name()), rtt);
    }
    let mut miss_ms = Samples::new();
    for &(_, ms, miss) in &traced.writes {
        if miss {
            miss_ms.push(ms);
        }
    }
    set(report, "http.rtt_ms_p50.miss", miss_ms.median());
    let hit_rtt = traced.rtt_ms.get_mut("hit").map_or(0.0, Samples::median);
    set(
        report,
        "http.overhead_ms",
        hit_rtt - probes.hit_in_process_ms,
    );
    set(report, "http.bytes_per_read", traced.read_bytes.mean());
    for (name, value) in serve::cache_metrics(&traced.stats_delta) {
        set(report, name, value);
    }
    set(report, "cache.lookup_us", probes.lookup_us);
    set(
        report,
        "serve.read_ms_p50",
        traced.reads.latency_ms.median(),
    );
    let (p, read_tail) = traced.reads.latency_ms.supported_percentile(99.0);
    set(report, "serve.read_ms_p99", read_tail);
    set(report, "serve.write_ms_p50", traced.write_ms.median());
    set(report, "gen.late_ms_max", traced.reads.late_ms_max);
    report.notes.push(format!(
        "{} reads, serve.read_ms_p99 reports p{p}; {} writes ({} misses)",
        traced.reads.latency_ms.len(),
        traced.writes.len(),
        miss_ms.len()
    ));

    let mut spans = traced.spans.clone();
    spans.extend(probes.spans);
    let layers = Layers(by_layer(&spans));
    for (metric, span) in [
        ("dsl.parse_ms", "dsl.parse"),
        ("digest.ms", "digest"),
        ("incr.warm_ms", "incr.warm"),
        ("artifacts.encode_ms", "artifacts.encode"),
        ("artifacts.decode_ms", "artifacts.decode"),
    ] {
        set(report, metric, layers.ms_per_call(span));
    }
    // The misses' wall time against what the probes attribute to the
    // layers a miss crosses inside the service; the disk store is an
    // encode plus a file write, so only the encode is attributed.
    let misses: Vec<f64> = traced.writes.iter().filter(|w| w.2).map(|w| w.1).collect();
    let wall_ns = misses.iter().sum::<f64>() * 1e6;
    let attributed = layers.self_ns(&[
        "dsl.parse",
        "digest",
        "incr.warm",
        "artifacts.compute_outcome",
        "artifacts.encode",
    ]);
    set_coverage(
        report,
        attributed,
        wall_ns,
        misses.len(),
        &[(
            "service outside the probed layers (http, cache coordination, disk write)",
            wall_ns - attributed,
        )],
    );

    // Overhead over the writes both phases completed (the same inputs
    // in the same order).
    let common = untraced.writes.len().min(traced.writes.len());
    let sum = |writes: &[(usize, f64, bool)]| writes[..common].iter().map(|w| w.1).sum::<f64>();
    set(
        report,
        "obs.trace_overhead",
        sum(&traced.writes) / sum(&untraced.writes).max(1e-9),
    );
    set_counters(report, "serve_edit");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-layer metric is listed in `BENCHMARK.json`, and the
    /// end-to-end list there matches the one the runs report.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in PER_LAYER.iter().chain(crate::END_TO_END.iter()) {
            assert!(listed(name), "{name} is missing from BENCHMARK.json");
        }
        for workload in crate::WORKLOADS {
            assert!(listed(workload), "workload {workload} is missing");
        }
        for name in counters::NAMES {
            assert!(PER_LAYER.iter().any(|(metric, _)| *metric == name));
        }
    }
}
