//! The `--trace` surface: span-tree determinism for the sequential
//! engine (same spec, same `--jobs 1` run → byte-identical tree
//! *structure*; durations of course vary) and the CLI contract that
//! `--trace` writes the tree to stderr while stdout stays the artifact
//! byte stream.

use ezrealtime::core::{Outcome, Project};
use ezrealtime::obs::SpanNode;
use std::process::Command;
use std::sync::Mutex;

/// Tracing is process-wide, so the in-process traced tests take turns.
static TRACING: Mutex<()> = Mutex::new(());

fn ezrt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ezrt"))
}

fn spec_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/feasible__diamond.xml")
}

/// One traced sequential synthesis, returning the duration-free span
/// structure. In-process (not through the binary) so the tree is the
/// library's own, not filtered through CLI formatting.
fn traced_structure(document: &str) -> String {
    let _turn = TRACING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ezrealtime::obs::drain_spans();
    ezrealtime::obs::set_tracing(true);
    let project = ezrealtime::core::Project::from_dsl(document)
        .expect("corpus spec parses")
        .with_jobs(1);
    let outcome = project.synthesize().expect("corpus spec is feasible");
    drop(outcome);
    ezrealtime::obs::set_tracing(false);
    ezrealtime::obs::drain_spans().structure()
}

#[test]
fn sequential_span_tree_structure_is_deterministic() {
    let document = std::fs::read_to_string(spec_path()).expect("read corpus spec");
    let first = traced_structure(&document);
    assert!(
        first.contains("synthesize"),
        "missing synthesize span:\n{first}"
    );
    for child in ["translate", "search", "derive"] {
        assert!(first.contains(child), "missing {child} span:\n{first}");
    }
    let second = traced_structure(&document);
    assert_eq!(
        first, second,
        "the --jobs 1 span tree must be run-to-run identical"
    );
}

/// The number of `name` spans anywhere under `node`.
fn spans_named(node: &SpanNode, name: &str) -> u64 {
    let own = if node.name == name { node.count } else { 0 };
    own + node
        .children
        .iter()
        .map(|child| spans_named(child, name))
        .sum::<u64>()
}

/// Runs `synthesis` traced and returns its outcome with the number of
/// `replay` spans it recorded. The caller holds the [`TRACING`] turn.
fn count_replays(synthesis: impl FnOnce() -> Outcome) -> (Outcome, u64) {
    ezrealtime::obs::drain_spans();
    ezrealtime::obs::set_tracing(true);
    let outcome = synthesis();
    ezrealtime::obs::set_tracing(false);
    let tree = ezrealtime::obs::drain_spans();
    let replays = tree.roots.iter().map(|root| spans_named(root, "replay"));
    (outcome, replays.sum())
}

/// The mine pump with the first `<tag>from</tag>` element set to `to`
/// (`from == to` leaves it unedited).
fn pump_with(tag: &str, from: u64, to: u64) -> Project {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/feasible__mine-pump.xml");
    let document = std::fs::read_to_string(path).expect("read the pump");
    let old = format!("<{tag}>{from}</{tag}>");
    assert!(document.contains(&old), "the pump has {old}");
    let edited = document.replacen(&old, &format!("<{tag}>{to}</{tag}>"), 1);
    Project::from_dsl(&edited).expect("the pump parses")
}

/// Every feasible result is replayed exactly once: a cold synthesis, a
/// warm start whose seed still runs verbatim (a loosened PMC deadline:
/// the seeded search's replay *is* the result), and a warm start that
/// searches on (a cut WFC WCET).
#[test]
fn each_feasible_result_is_replayed_once() {
    // Held throughout: even untraced calls here would record spans
    // while another test has tracing on.
    let _turn = TRACING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let pump = pump_with("deadline", 20, 20);
    let (cold, replays) = count_replays(|| pump.synthesize().expect("the pump is feasible"));
    assert!(cold.replay_ok);
    assert_eq!(replays, 1, "cold synthesis");

    let loosened = pump_with("deadline", 20, 25);
    let (warm, replays) = count_replays(|| {
        loosened
            .synthesize_incremental(cold.solution.schedule())
            .expect("a loosened deadline stays feasible")
    });
    assert_eq!(warm.stats.states_visited, 0, "the seed replays verbatim");
    assert!(warm.replay_ok);
    assert_eq!(replays, 1, "warm start, verbatim");

    let cut = pump_with("computing", 15, 10);
    let (warm, replays) = count_replays(|| {
        cut.synthesize_incremental(cold.solution.schedule())
            .expect("a WCET cut stays feasible")
    });
    assert!(
        warm.stats.states_visited > 0,
        "the seeded search searches on"
    );
    assert!(warm.replay_ok);
    assert_eq!(replays, 1, "warm start, searched");
}

/// Packaging a result for the cache, and the validation behind its
/// `violations` field, each get one span per feasible compile, so the
/// report-field time is attributed rather than left in no span.
#[test]
fn each_feasible_compile_is_packaged_and_validated_once() {
    let _turn = TRACING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let document = std::fs::read_to_string(spec_path()).expect("read corpus spec");
    let project = Project::from_dsl(&document).expect("corpus spec parses");
    let digest = ezrealtime::artifacts::project_digest(&project);
    ezrealtime::obs::drain_spans();
    ezrealtime::obs::set_tracing(true);
    let outcome = ezrealtime::artifacts::compute_outcome(&project, digest);
    ezrealtime::obs::set_tracing(false);
    let tree = ezrealtime::obs::drain_spans();
    assert!(outcome.feasible);
    let count = |name: &str| -> u64 { tree.roots.iter().map(|root| spans_named(root, name)).sum() };
    assert_eq!(count("package"), 1, "{}", tree.structure());
    assert_eq!(count("validate"), 1, "{}", tree.structure());
    let package = tree
        .roots
        .iter()
        .find(|root| root.name == "package")
        .expect("package is a root span");
    assert_eq!(
        spans_named(package, "validate"),
        1,
        "validate sits in package"
    );
}

#[test]
fn cli_trace_prints_to_stderr_and_leaves_stdout_unchanged() {
    let spec = spec_path();
    let spec = spec.to_str().expect("utf-8 path");

    let plain = ezrt()
        .args(["table", spec])
        .output()
        .expect("ezrt table runs");
    assert!(plain.status.success());
    assert!(plain.stderr.is_empty(), "untraced runs keep stderr silent");

    let traced = ezrt()
        .args(["--trace", "table", spec])
        .output()
        .expect("ezrt --trace table runs");
    assert!(traced.status.success());
    // stdout is the artifact contract (shared byte-for-byte with the
    // HTTP surface): --trace must not perturb it. `table` output
    // carries no wall-clock fields, so the comparison is exact.
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace changed the artifact bytes"
    );
    let stderr = String::from_utf8(traced.stderr).expect("UTF-8 stderr");
    assert!(stderr.contains("ezrt trace:"), "{stderr}");
    for span in ["parse-dsl", "digest", "synthesize", "search", "render"] {
        assert!(stderr.contains(span), "missing {span} span in:\n{stderr}");
    }

    // serve is long-running and scrapes via /v1/metrics instead; the
    // flag combination is rejected up front.
    let refused = ezrt()
        .args(["--trace", "serve", "--addr", "127.0.0.1:0"])
        .output()
        .expect("ezrt --trace serve runs");
    assert!(!refused.status.success());
}
