//! Integration tests for the `ezrt` command-line tool.

use ezrealtime::scheduler::SearchStats;
use std::process::Command;

fn ezrt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ezrt"))
}

fn spec_file() -> tempfile_lite::TempFile {
    let spec = ezrealtime::spec::corpus::small_control();
    let document = ezrealtime::dsl::to_xml(&spec);
    tempfile_lite::TempFile::with_content("spec.xml", &document)
}

/// A tiny self-contained temp-file helper (no external crates).
mod tempfile_lite {
    use std::path::PathBuf;

    pub struct TempFile {
        pub path: PathBuf,
    }

    impl TempFile {
        pub fn with_content(name: &str, content: &str) -> Self {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "ezrt_cli_{}_{}_{}",
                std::process::id(),
                unique,
                name.replace('.', "_")
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join(name);
            let mut file = std::fs::File::create(&path).expect("temp file");
            use std::io::Write;
            file.write_all(content.as_bytes()).expect("write");
            TempFile { path }
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            if let Some(parent) = self.path.parent() {
                let _ = std::fs::remove_dir_all(parent);
            }
        }
    }
}

#[test]
fn check_reports_utilization() {
    let file = spec_file();
    let output = ezrt()
        .args(["check", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("4 task(s)"));
    assert!(stdout.contains("utilization"));
}

#[test]
fn schedule_prints_search_statistics() {
    let file = spec_file();
    let output = ezrt()
        .args(["schedule", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("feasible schedule found"));
    assert!(stdout.contains("states visited"));
    assert!(stdout.contains("0 violation(s)"));
}

/// Every search counter with a report key is a top-level key of the
/// `schedule --json` object, feasible or not.
fn assert_report_counters(stdout: &str) {
    for key in SearchStats::COUNTERS.iter().filter_map(|c| c.report_key) {
        assert!(
            stdout.contains(&format!("\n  \"{key}\": ")),
            "missing {key} in {stdout}"
        );
    }
}

#[test]
fn schedule_json_emits_machine_readable_stats() {
    let file = spec_file();
    let output = ezrt()
        .args(["schedule", file.path.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    for key in [
        "\"feasible\": true",
        "\"states_per_second\"",
        "\"wall_time_ms\"",
        "\"violations\": 0",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    for gone in ["\"jobs\"", "\"steals\"", "\"por_overlap_skips\""] {
        assert!(!stdout.contains(gone), "retired key {gone} in {stdout}");
    }
    assert_report_counters(&stdout);
    // Shape check: one flat object, balanced braces, no trailing comma.
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.trim_end().ends_with('}'));
    assert!(!stdout.contains(",\n}"));
}

/// `schedule --json` with its wall-clock fields (`wall_time_ms` and
/// `states_per_second`, states over wall time) masked.
fn schedule_json_without_wall_time(jobs: &str, spec: &std::path::Path) -> String {
    let output = ezrt()
        .args(["--jobs", jobs, "schedule", spec.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    // Infeasible specs exit nonzero but still print the JSON object.
    String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .filter(|line| {
            !line.starts_with("  \"wall_time_ms\": ")
                && !line.starts_with("  \"states_per_second\": ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `--jobs` only widens batch and sweep fan-out; every search is
/// sequential, so `schedule --json` is byte-identical at any `--jobs`
/// once wall time is masked, on every corpus spec.
#[test]
fn jobs_flag_leaves_schedule_output_unchanged() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut specs: Vec<_> = std::fs::read_dir(&corpus)
        .expect("corpus dir")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    specs.sort();
    assert!(specs.len() >= 10, "{specs:?}");
    for spec in &specs {
        let one = schedule_json_without_wall_time("1", spec);
        assert!(one.contains("\"feasible\": "), "{}: {one}", spec.display());
        assert_eq!(
            one,
            schedule_json_without_wall_time("2", spec),
            "{}",
            spec.display()
        );
    }
    let pump = schedule_json_without_wall_time("2", &corpus.join("feasible__mine-pump.xml"));
    assert!(pump.contains("\"states_visited\": 4709,"), "{pump}");
    assert!(pump.contains("\"violations\": 0"), "{pump}");

    let file = spec_file();
    let bad = ezrt()
        .args(["--jobs", "zero", "schedule", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8(bad.stderr).unwrap().contains("--jobs"));

    let misplaced = ezrt()
        .args(["check", file.path.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(!misplaced.status.success());
    assert!(String::from_utf8(misplaced.stderr)
        .unwrap()
        .contains("only supported by"));
}

#[test]
fn table_emits_the_c_array() {
    let file = spec_file();
    let output = ezrt()
        .args(["table", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.starts_with("struct ScheduleItem scheduleTable"));
    assert!(stdout.contains("(int *)sense"));
}

#[test]
fn codegen_validates_targets() {
    let file = spec_file();
    let ok = ezrt()
        .args(["codegen", file.path.to_str().unwrap(), "i8051"])
        .output()
        .expect("runs");
    assert!(ok.status.success());
    assert!(String::from_utf8(ok.stdout)
        .unwrap()
        .contains("__interrupt(1)"));

    let bad = ezrt()
        .args(["codegen", file.path.to_str().unwrap(), "z80"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("unknown target"));
}

#[test]
fn pnml_output_reimports() {
    let file = spec_file();
    let output = ezrt()
        .args(["pnml", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(ezrealtime::pnml::from_pnml(&stdout).is_ok());
}

#[test]
fn simulate_and_compare_run() {
    let file = spec_file();
    let output = ezrt()
        .args(["simulate", file.path.to_str().unwrap(), "3"])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("deadline misses  0"));

    let output = ezrt()
        .args(["compare", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("pre-runtime"));
    assert!(stdout.contains("edf-p"));
}

#[test]
fn gantt_window_arguments() {
    let file = spec_file();
    let output = ezrt()
        .args(["gantt", file.path.to_str().unwrap(), "0", "20"])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("sense"));
    assert!(stdout.contains('#'));

    let bad = ezrt()
        .args(["gantt", file.path.to_str().unwrap(), "9", "9"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    // Missing file.
    let output = ezrt()
        .args(["check", "/nonexistent.xml"])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    assert!(String::from_utf8(output.stderr)
        .unwrap()
        .contains("cannot read"));

    // Unknown command.
    let file = spec_file();
    let output = ezrt()
        .args(["frobnicate", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!output.status.success());

    // No arguments: usage on stderr.
    let output = ezrt().output().expect("runs");
    assert!(!output.status.success());
    assert!(String::from_utf8(output.stderr).unwrap().contains("usage"));
}

#[test]
fn analyze_reports_schedulability_verdicts() {
    let file = spec_file();
    let output = ezrt()
        .args(["analyze", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("utilization"));
    assert!(stdout.contains("demand bound"));
    assert!(stdout.contains("RTA"));
    assert!(stdout.contains("worst response"));
}

#[test]
fn invariants_lists_resource_conservation_laws() {
    let file = spec_file();
    let output = ezrt()
        .args(["invariants", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    // small_control: the processor and one exclusion lock conserve.
    assert!(stdout.contains("pproc_cpu0"));
    assert!(stdout.contains("pexcl_"));
    assert!(stdout.contains("= 1"));
}

#[test]
fn repeated_flags_are_rejected() {
    let file = spec_file();
    for flags in [
        &["--jobs", "2", "--jobs", "4"][..],
        &["--jobs", "2", "--jobs", "2"][..],
    ] {
        let output = ezrt()
            .args(flags)
            .args(["schedule", file.path.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(!output.status.success(), "{flags:?} must be rejected");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("--jobs may only be given once"), "{stderr}");
    }
}

#[test]
fn schedule_json_reports_the_spec_digest() {
    let file = spec_file();
    let output = ezrt()
        .args(["schedule", file.path.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let fields = parse_flat_json(&stdout);
    let digest = &fields
        .iter()
        .find(|(key, _)| key == "spec_digest")
        .expect("spec_digest field")
        .1;
    let hex = digest.trim_matches('"');
    assert_eq!(hex.len(), 48, "{digest}");
    assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");

    // The digest is stable across runs and across `--jobs` (it keys a
    // shared result cache), so outputs are join-able by it.
    let again = ezrt()
        .args([
            "--jobs",
            "2",
            "schedule",
            file.path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("runs");
    let stdout = String::from_utf8(again.stdout).unwrap();
    assert!(
        stdout.contains(&format!("\"spec_digest\": {digest}")),
        "{stdout}"
    );
}

/// Parses one flat JSON object (the only shape the CLI emits) into
/// ordered key → raw-value pairs, respecting quoted strings.
fn parse_flat_json(text: &str) -> Vec<(String, String)> {
    let text = text.trim();
    assert!(
        text.starts_with('{') && text.ends_with('}'),
        "not a flat object: {text}"
    );
    let mut fields = Vec::new();
    let mut chars = text[1..text.len() - 1].chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        assert_eq!(chars.next(), Some('"'), "key must be quoted: {text}");
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '"' {
                break;
            }
            key.push(c);
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ':') {
            chars.next();
        }
        let mut value = String::new();
        if chars.peek() == Some(&'"') {
            value.push(chars.next().unwrap());
            let mut escaped = false;
            for c in chars.by_ref() {
                value.push(c);
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    break;
                }
            }
        } else {
            while matches!(chars.peek(), Some(c) if !c.is_whitespace() && *c != ',') {
                value.push(chars.next().unwrap());
            }
        }
        fields.push((key, value));
    }
    fields
}

/// `ezrt batch --json` rows must match standalone `ezrt schedule
/// --json` runs field for field: the same key sequence (plus the
/// batch-only `file` and `cache` envelope) and identical values for
/// every deterministic field, at any fan-out width.
#[test]
fn batch_rows_match_per_file_schedule_json() {
    let small = ezrealtime::dsl::to_xml(&ezrealtime::spec::corpus::small_control());
    let overload = ezrealtime::dsl::to_xml(
        &ezrealtime::spec::SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap(),
    );
    let dir = std::env::temp_dir().join(format!("ezrt_cli_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("batch dir");
    std::fs::write(dir.join("a_small.xml"), &small).expect("spec");
    std::fs::write(dir.join("b_overload.xml"), &overload).expect("spec");
    std::fs::write(dir.join("c_dup_small.xml"), &small).expect("spec");

    // Timing-dependent fields vary run to run; everything else must
    // not (per-file batch synthesis is always the sequential engine).
    let deterministic = |key: &str| key != "states_per_second" && key != "wall_time_ms";

    for jobs in ["1", "3"] {
        let output = ezrt()
            .args(["--jobs", jobs, "batch", dir.to_str().unwrap(), "--json"])
            .output()
            .expect("runs");
        assert!(output.status.success(), "jobs={jobs}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let rows: Vec<&str> = stdout.lines().collect();
        assert_eq!(rows.len(), 3, "{stdout}");

        for (row, file) in rows
            .iter()
            .zip(["a_small.xml", "b_overload.xml", "c_dup_small.xml"])
        {
            let row_fields = parse_flat_json(row);
            assert_eq!(row_fields[0].0, "file");
            assert_eq!(row_fields[0].1, format!("\"{file}\""));
            assert_eq!(row_fields.last().unwrap().0, "cache");

            let standalone = ezrt()
                .args(["schedule", dir.join(file).to_str().unwrap(), "--json"])
                .output()
                .expect("runs");
            let schedule_fields = parse_flat_json(&String::from_utf8(standalone.stdout).unwrap());

            // Field-for-field: same keys in the same order…
            let row_keys: Vec<&str> = row_fields[1..row_fields.len() - 1]
                .iter()
                .map(|(key, _)| key.as_str())
                .collect();
            let schedule_keys: Vec<&str> = schedule_fields
                .iter()
                .map(|(key, _)| key.as_str())
                .collect();
            assert_eq!(row_keys, schedule_keys, "{file} (jobs={jobs})");
            // …and identical deterministic values.
            for ((key, row_value), (_, schedule_value)) in row_fields[1..row_fields.len() - 1]
                .iter()
                .zip(&schedule_fields)
            {
                if deterministic(key) {
                    assert_eq!(
                        row_value, schedule_value,
                        "{file} field {key} (jobs={jobs})"
                    );
                }
            }
        }
        // Within one sequential batch the duplicate spec hits the cache
        // of its first occurrence.
        if jobs == "1" {
            assert!(rows[0].contains("\"cache\": \"miss\""), "{stdout}");
            assert!(rows[2].contains("\"cache\": \"hit\""), "{stdout}");
        }
    }

    // Human mode summarizes one line per file and still exits zero.
    let human = ezrt()
        .args(["batch", dir.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(human.status.success());
    let stdout = String::from_utf8(human.stdout).unwrap();
    assert!(stdout.contains("a_small.xml"), "{stdout}");
    assert!(stdout.contains("infeasible"), "{stdout}");

    // An unreadable spec yields a nonzero exit but still a row per file.
    std::fs::write(dir.join("d_bad.xml"), "<nonsense/>").expect("spec");
    let bad = ezrt()
        .args(["batch", dir.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    let stdout = String::from_utf8(bad.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
    assert!(stdout.contains("\"error\": "), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_successfully() {
    let output = ezrt().arg("--help").output().expect("runs");
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout).unwrap().contains("usage"));
}

#[test]
fn infeasible_specs_fail_cleanly() {
    let overload = ezrealtime::spec::SpecBuilder::new("overload")
        .task("x", |t| t.computation(3).deadline(4).period(4))
        .task("y", |t| t.computation(2).deadline(4).period(4))
        .build()
        .unwrap();
    let document = ezrealtime::dsl::to_xml(&overload);
    let file = tempfile_lite::TempFile::with_content("overload.xml", &document);
    let output = ezrt()
        .args(["schedule", file.path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    assert!(String::from_utf8(output.stderr)
        .unwrap()
        .contains("no feasible schedule"));
    // stdout stays machine-friendly (empty).
    assert!(output.stdout.is_empty());

    // With --json the scripting contract holds on failure too: one JSON
    // object on stdout, still a nonzero exit.
    let output = ezrt()
        .args(["schedule", file.path.to_str().unwrap(), "--json"])
        .output()
        .expect("runs");
    assert!(!output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("\"feasible\": false"), "{stdout}");
    assert!(stdout.contains("\"error\": \""), "{stdout}");
    assert_report_counters(&stdout);
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.trim_end().ends_with('}'));
    assert!(!stdout.contains(",\n}"));
}

#[test]
fn warm_from_seeds_the_search_and_falls_back_cold() {
    let base = spec_file();
    let grid = ezrealtime::spec::sweep::SweepGrid::parse("deadlines:90").expect("grid");
    let edited = grid.points()[0]
        .apply(&ezrealtime::spec::corpus::small_control())
        .expect("valid point");
    let edited = ezrealtime::dsl::to_xml(&edited);
    let edited = tempfile_lite::TempFile::with_content("edited.xml", &edited);
    let overload = ezrealtime::spec::SpecBuilder::new("overload")
        .task("x", |t| t.computation(3).deadline(4).period(4))
        .task("y", |t| t.computation(2).deadline(4).period(4))
        .build()
        .unwrap();
    let overload = ezrealtime::dsl::to_xml(&overload);
    let overload = tempfile_lite::TempFile::with_content("overload.xml", &overload);
    let absent = "0".repeat(48);

    // A feasible ancestor file seeds the edited spec's search; an
    // absent digest or an infeasible ancestor warns and runs cold.
    let cases = [
        (base.path.to_str().unwrap(), "1", ""),
        (absent.as_str(), "0", "is not in the cache; running cold"),
        (
            overload.path.to_str().unwrap(),
            "0",
            "has no feasible schedule; running cold",
        ),
    ];
    for (source, seed_hits, warning) in cases {
        let output = ezrt()
            .args(["--warm-from", source, "schedule", "--json"])
            .arg(&edited.path)
            .output()
            .expect("runs");
        assert!(output.status.success(), "{source}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let fields = parse_flat_json(&stdout);
        let hits = fields.iter().find(|(key, _)| key == "incr_seed_hits");
        assert_eq!(hits.expect("incr_seed_hits").1, seed_hits, "{source}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains(warning), "{source}: {stderr}");
        assert_eq!(stderr.is_empty(), warning.is_empty(), "{source}: {stderr}");
    }
}
