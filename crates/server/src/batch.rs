//! Offline batch fan-out: a directory of `<rt:ez-spec>` XML files
//! pushed through the *same* work-queue + result-cache machinery as the
//! HTTP front end, one JSON row per spec.
//!
//! Files fan out over [`Parallelism`] worker threads (the CLI's
//! `--jobs`); each file's synthesis is one sequential search, so every
//! row is deterministic and matches a standalone `ezrt schedule --json`
//! run field for field regardless of the fan-out width. Duplicate specifications inside one batch (or repeated batch
//! runs over one [`ResultCache`]) deduplicate through the digest cache:
//! later occurrences are served as `cache: "hit"`.

use crate::cache::{compute_outcome, ResultCache};
use crate::digest::project_digest;
use crate::report::{self, JsonFields};
use ezrt_core::Project;
use ezrt_scheduler::{Parallelism, SchedulerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// How many spec files are processed concurrently.
    pub fanout: Parallelism,
    /// The scheduler configuration every file is synthesized under.
    pub scheduler: SchedulerConfig,
    /// Result-cache bound in completed entries.
    pub cache_capacity: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            fanout: Parallelism::SEQUENTIAL,
            scheduler: SchedulerConfig::default(),
            cache_capacity: 1024,
        }
    }
}

/// One processed spec file.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// The file name within the batch directory.
    pub file: String,
    /// Whether the file was read, parsed and synthesized to a verdict
    /// (feasible *or* infeasible). `false` means an I/O or parse error.
    pub ok: bool,
    /// The compact one-line JSON row.
    pub line: String,
}

/// Synthesizes every `*.xml` specification under `dir`, fanning the
/// files out over [`BatchOptions::fanout`] workers through `cache`.
/// Rows come back sorted by file name regardless of completion order.
///
/// # Errors
///
/// Returns a human-readable message when the directory cannot be read
/// or contains no `*.xml` files; per-file failures are reported in
/// their row (`ok == false`), not as an error.
pub fn run_batch(
    dir: &Path,
    options: &BatchOptions,
    cache: &ResultCache,
) -> Result<Vec<BatchRow>, String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .map_err(|error| format!("cannot read {}: {error}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().is_file())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| {
            Path::new(name)
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("xml"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .xml specifications found in {}", dir.display()));
    }

    let next = AtomicUsize::new(0);
    let rows: Vec<Mutex<Option<BatchRow>>> = files.iter().map(|_| Mutex::new(None)).collect();
    let workers = options.fanout.jobs().min(files.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(index) else {
                    return;
                };
                let row = process_file(dir, file, options, cache);
                *rows[index].lock().expect("row slot poisoned") = Some(row);
            });
        }
    });
    Ok(rows
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("row slot poisoned")
                .expect("every index processed")
        })
        .collect())
}

fn process_file(dir: &Path, file: &str, options: &BatchOptions, cache: &ResultCache) -> BatchRow {
    let error_row = |message: String| BatchRow {
        file: file.to_owned(),
        ok: false,
        line: report::render_compact(&[
            ("file", report::json_string(file)),
            ("error", report::json_string(&message)),
        ]),
    };
    let document = match std::fs::read_to_string(dir.join(file)) {
        Ok(document) => document,
        Err(error) => return error_row(format!("cannot read: {error}")),
    };
    let project = match Project::from_dsl(&document) {
        Ok(project) => project,
        Err(error) => return error_row(error.to_string()),
    };
    let project = project.with_config(options.scheduler.clone());
    let digest = project_digest(&project);
    let (outcome, lookup) = cache.get_or_compute(digest, || compute_outcome(&project, digest));
    let mut fields: JsonFields = Vec::with_capacity(outcome.fields.len() + 2);
    fields.push(("file", report::json_string(file)));
    fields.extend(outcome.fields.iter().cloned());
    fields.push(("cache", report::json_string(lookup.as_str())));
    BatchRow {
        file: file.to_owned(),
        ok: true,
        line: report::render_compact(&fields),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::corpus::{figure3_spec, small_control};
    use std::path::PathBuf;

    fn batch_dir(name: &str, files: &[(&str, String)]) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ezrt_batch_unit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("batch dir");
        for (file, content) in files {
            std::fs::write(dir.join(file), content).expect("spec file");
        }
        dir
    }

    #[test]
    fn rows_are_sorted_deduplicated_and_deterministic() {
        let small = ezrt_dsl::to_xml(&small_control());
        let fig3 = ezrt_dsl::to_xml(&figure3_spec());
        let dir = batch_dir(
            "rows",
            &[
                ("b_fig3.xml", fig3),
                ("a_small.xml", small.clone()),
                ("c_dup_small.xml", small),
                ("ignored.txt", "not a spec".to_owned()),
            ],
        );
        let cache = ResultCache::new(64, 1);
        let rows = run_batch(&dir, &BatchOptions::default(), &cache).expect("batch runs");
        assert_eq!(
            rows.iter().map(|r| r.file.as_str()).collect::<Vec<_>>(),
            ["a_small.xml", "b_fig3.xml", "c_dup_small.xml"]
        );
        assert!(rows.iter().all(|r| r.ok));
        // The duplicate content hits the cache of the first occurrence.
        assert!(rows[2].line.contains("\"cache\": \"hit\""));
        assert!(rows[0].line.contains("\"cache\": \"miss\""));
        // Fanning out does not change the deterministic row content.
        let cache = ResultCache::new(64, 1);
        let parallel = run_batch(
            &dir,
            &BatchOptions {
                fanout: Parallelism::new(3),
                ..BatchOptions::default()
            },
            &cache,
        )
        .expect("parallel batch runs");
        for (row, parallel_row) in rows.iter().zip(&parallel) {
            // Timing fields differ run to run; the cache field may too
            // (fan-out can race the duplicate past its original). Check
            // the deterministic prefix through the search counters.
            let deterministic = |line: &str| {
                line.split(", ")
                    .filter(|field| {
                        !field.contains("per_second")
                            && !field.contains("wall_time")
                            && !field.contains("\"cache\"")
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            assert_eq!(deterministic(&row.line), deterministic(&parallel_row.line));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_and_malformed_specs_get_error_rows() {
        let dir = batch_dir("errors", &[("bad.xml", "<nonsense/>".to_owned())]);
        let cache = ResultCache::new(4, 1);
        let rows = run_batch(&dir, &BatchOptions::default(), &cache).expect("batch runs");
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].ok);
        assert!(rows[0].line.contains("\"error\": "));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directories_are_an_error() {
        let dir = batch_dir("empty", &[]);
        let cache = ResultCache::new(4, 1);
        assert!(run_batch(&dir, &BatchOptions::default(), &cache).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
