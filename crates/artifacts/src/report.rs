//! The flat-JSON report shared by `ezrt schedule --json`, `ezrt batch
//! --json` and the HTTP `/v1/schedule` responses.
//!
//! All three surfaces render the *same* ordered field list (hand-rolled
//! JSON — the workspace builds offline, without serde), so their
//! outputs are byte-identical where they overlap and join-able by the
//! `spec_digest` field. The server appends one extra `cache` field and
//! batch mode prepends a `file` field; everything in between is shared.

use crate::digest::{format_task_subdigests, structure_digest, task_subdigests, SpecDigest};
use ezrt_core::{Outcome, Project};
use ezrt_scheduler::{SearchStats, SynthesizeError};

/// An ordered list of `(key, rendered JSON value)` pairs — the one flat
/// object every surface prints. Values are pre-rendered JSON fragments
/// (`"true"`, `"42"`, `"\"text\""`), so rendering is pure concatenation.
pub type JsonFields = Vec<(&'static str, String)>;

/// Renders `text` as a JSON string literal (quoted and escaped).
pub fn json_string(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len() + 2);
    escaped.push('"');
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped.push('"');
    escaped
}

/// The field list for a successful synthesis: the `ezrt schedule
/// --json` contract (one flat object, search counters included), plus
/// the digest keys. `violations` re-checks the timeline against the
/// specification with the net-independent validator;
/// `structure_digest` and the flat `task_subdigests` map let external
/// tools diff two specs structurally without re-implementing
/// canonicalization; the `incr_*` counters describe the warm start that
/// produced the result (all zero on cold runs).
pub fn success_fields(digest: &SpecDigest, project: &Project, outcome: &Outcome) -> JsonFields {
    let stats = &outcome.stats;
    let schedule = outcome.solution.schedule();
    let mut fields = vec![
        ("feasible", "true".to_owned()),
        ("spec_digest", json_string(&digest.to_hex())),
        (
            "structure_digest",
            json_string(&structure_digest(project).to_hex()),
        ),
        (
            "task_subdigests",
            json_string(&format_task_subdigests(&task_subdigests(project))),
        ),
        ("firings", schedule.firings().len().to_string()),
        ("makespan", schedule.makespan().to_string()),
    ];
    push_counters(&mut fields, stats);
    fields.extend([
        ("minimum_states", stats.minimum_states().to_string()),
        ("overhead_ratio", format!("{:.6}", stats.overhead_ratio())),
    ]);
    push_rates(&mut fields, stats);
    fields.push(("violations", outcome.solution.validate().len().to_string()));
    fields
}

/// The field list for a failed synthesis: `feasible: false`, the error
/// text and the search counters gathered before the failure.
pub fn failure_fields(digest: &SpecDigest, error: &SynthesizeError) -> JsonFields {
    let mut fields = vec![
        ("feasible", "false".to_owned()),
        ("spec_digest", json_string(&digest.to_hex())),
        ("error", json_string(&error.to_string())),
    ];
    push_counters(&mut fields, error.stats());
    push_rates(&mut fields, error.stats());
    fields
}

/// Appends every counter with a report key, in table order.
fn push_counters(fields: &mut JsonFields, stats: &SearchStats) {
    for counter in SearchStats::COUNTERS {
        if let Some(key) = counter.report_key {
            fields.push((key, (counter.get)(stats).to_string()));
        }
    }
}

/// Appends the two wall-clock fields.
fn push_rates(fields: &mut JsonFields, stats: &SearchStats) {
    fields.extend([
        (
            "states_per_second",
            format!("{:.1}", stats.states_per_second()),
        ),
        (
            "wall_time_ms",
            format!("{:.3}", stats.elapsed.as_secs_f64() * 1e3),
        ),
    ]);
}

/// Every field key the renderers above emit besides the counters'
/// report keys.
const OTHER_KEYS: &[&str] = &[
    "feasible",
    "spec_digest",
    "structure_digest",
    "task_subdigests",
    "error",
    "firings",
    "makespan",
    "minimum_states",
    "overhead_ratio",
    "states_per_second",
    "wall_time_ms",
    "violations",
];

/// Interns `name` to the `'static` key the renderers above emit, or
/// `None` when they emit no such key. The disk-cache codec decodes keys
/// through this, so a persisted [`JsonFields`] list can be rebuilt
/// without leaking memory; an unknown key means the file was written by
/// an incompatible build and the entry is discarded (re-synthesized)
/// rather than guessed at.
pub fn static_key(name: &str) -> Option<&'static str> {
    let counters = SearchStats::COUNTERS.iter().filter_map(|c| c.report_key);
    OTHER_KEYS
        .iter()
        .copied()
        .chain(counters)
        .find(|key| *key == name)
}

/// Renders the fields as the CLI's pretty flat object: one key per
/// line, two-space indent, no trailing comma, no trailing newline.
pub fn render_pretty(fields: &[(&'static str, String)]) -> String {
    let mut out = String::from("{\n");
    for (index, (key, value)) in fields.iter().enumerate() {
        let comma = if index + 1 == fields.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    out.push('}');
    out
}

/// Renders the fields as one compact line — the batch-mode row format.
pub fn render_compact(fields: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (index, (key, value)) in fields.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{key}\": {value}"));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::project_digest;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn pretty_rendering_is_one_balanced_flat_object() {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let outcome = project.synthesize().expect("feasible");
        let text = render_pretty(&success_fields(&digest, &project, &outcome));
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with('}'));
        assert!(!text.contains(",\n}"));
        assert!(text.contains("\"feasible\": true"));
        assert!(text.contains("\"spec_digest\": \""));
        assert!(text.contains("\"violations\": 0"));
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let outcome = project.synthesize().expect("feasible");
        let line = render_compact(&success_fields(&digest, &project, &outcome));
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"makespan\": "));
    }

    #[test]
    fn every_rendered_key_is_internable() {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        let outcome = project.synthesize().expect("feasible");
        for (key, _) in success_fields(&digest, &project, &outcome) {
            assert_eq!(static_key(key), Some(key), "success key {key}");
        }
        use ezrt_scheduler::SchedulerConfig;
        let failing = Project::new(small_control()).with_config(SchedulerConfig {
            max_states: 1,
            ..SchedulerConfig::default()
        });
        let error = failing.synthesize().expect_err("state budget of one");
        for (key, _) in failure_fields(&digest, &error) {
            assert_eq!(static_key(key), Some(key), "failure key {key}");
        }
        assert_eq!(static_key("not-a-field"), None);
    }

    #[test]
    fn failure_fields_cover_the_cli_contract() {
        use ezrt_scheduler::SchedulerConfig;
        let project = Project::new(small_control()).with_config(SchedulerConfig {
            max_states: 1,
            ..SchedulerConfig::default()
        });
        let digest = project_digest(&project);
        let error = project.synthesize().expect_err("state budget of one");
        let fields = failure_fields(&digest, &error);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys[..3], ["feasible", "spec_digest", "error"]);
        assert!(keys.contains(&"states_visited"));
        assert_eq!(fields[0].1, "false");
    }
}
