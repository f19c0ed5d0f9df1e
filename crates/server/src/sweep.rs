//! Feasibility-frontier sweeps: a base spec crossed with a parameter
//! grid, fanned through the digest cache, one deterministic JSON row
//! per point.
//!
//! The engine reuses the batch fan-out shape — points spread over
//! [`SweepOptions::fanout`] worker threads, each point's synthesis one
//! sequential search — and adds one twist: the base
//! spec is synthesized first, and every grid point warm-starts from the
//! base outcome through the incremental seeding path. Seeding every
//! point from the *same* fixed ancestor (rather than from whichever
//! grid neighbour happened to finish first) is what keeps rows
//! byte-identical regardless of fan-out width, while still skipping the
//! prefix of the search the points share with the base.
//!
//! Row determinism contract: for one base spec + grid, the rendered
//! rows are byte-identical across runs, `--jobs` widths and CLI/HTTP
//! surfaces. Rows therefore carry only deterministic fields (point
//! parameters, verdict, digest, search counters) — wall-clock time is
//! reported out of band (CLI stderr, HTTP headers). Duplicate points
//! (and repeat sweeps over one cache) deduplicate through
//! [`ResultCache::get_or_compute`]: the identity point
//! `periods=100 deadlines=100 jitter=0` shares its digest with the
//! base spec itself.

use crate::cache::{compute_outcome, compute_outcome_incremental, Lookup, ResultCache};
use crate::digest::{project_digest, SpecDigest};
use crate::report::{self, JsonFields};
use ezrt_artifacts::outcome::SynthesisOutcome;
use ezrt_core::Project;
use ezrt_scheduler::{Parallelism, SchedulerConfig};
use ezrt_spec::sweep::{SweepGrid, SweepPoint, MAX_SWEEP_POINTS};
use ezrt_spec::EzSpec;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// How many grid points are processed concurrently.
    pub fanout: Parallelism,
    /// The scheduler configuration every point is synthesized under.
    pub scheduler: SchedulerConfig,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            fanout: Parallelism::SEQUENTIAL,
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// One frontier row: a grid point and its rendered verdict.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The grid point the row describes.
    pub point: SweepPoint,
    /// The derived spec's digest; `None` when the point was invalid.
    pub digest: Option<SpecDigest>,
    /// How the digest cache answered; `None` for invalid points, which
    /// never reach the cache.
    pub lookup: Option<Lookup>,
    /// The compact one-line JSON row (deterministic fields only).
    pub line: String,
}

/// The result of one sweep: rows in grid order plus summary counts.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Digest of the base spec the grid was applied to.
    pub base_digest: SpecDigest,
    /// One row per grid point, in the grid's lexicographic order.
    pub rows: Vec<SweepRow>,
    /// Number of distinct spec digests among the valid points — the
    /// sweep's deduplication denominator (deterministic, unlike cache
    /// hit counts, which depend on fan-out races and prior traffic).
    pub unique_digests: usize,
    /// Number of feasible points.
    pub feasible: usize,
    /// Number of points whose transformed timing failed validation.
    pub invalid: usize,
}

impl SweepReport {
    /// Renders the frontier: one compact JSON row per line, newline
    /// terminated. CLI stdout and the HTTP response body are both
    /// exactly this string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.line);
            out.push('\n');
        }
        out
    }
}

/// Expands `grid` over `spec` and synthesizes every point through
/// `cache`. Rows come back in grid order regardless of completion
/// order.
///
/// # Errors
///
/// Returns a human-readable message when the grid expands to more than
/// [`MAX_SWEEP_POINTS`] points. Per-point validation failures are
/// reported in their row (`verdict: "invalid"`), not as an error.
pub fn run_sweep(
    spec: &EzSpec,
    grid: &SweepGrid,
    options: &SweepOptions,
    cache: &ResultCache,
) -> Result<SweepReport, String> {
    if grid.len() > MAX_SWEEP_POINTS {
        return Err(format!(
            "grid expands to {} points; the maximum is {MAX_SWEEP_POINTS}",
            grid.len()
        ));
    }
    // The base outcome is the fixed warm-start ancestor for every
    // point; computing it up front (before any fan-out) pins the seed
    // all workers share.
    let base_project = Project::new(spec.clone()).with_config(options.scheduler.clone());
    let base_digest = project_digest(&base_project);
    let (base_outcome, _) =
        cache.get_or_compute(base_digest, || compute_outcome(&base_project, base_digest));
    let ancestor = base_outcome
        .solution
        .is_some()
        .then(|| Arc::clone(&base_outcome));

    let points = grid.points();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepRow>>> = points.iter().map(|_| Mutex::new(None)).collect();
    let workers = options.fanout.jobs().min(points.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(index) else {
                    return;
                };
                let row = process_point(spec, *point, &options.scheduler, ancestor.as_ref(), cache);
                *slots[index].lock().expect("row slot poisoned") = Some(row);
            });
        }
    });
    let rows: Vec<SweepRow> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("row slot poisoned")
                .expect("every point processed")
        })
        .collect();

    let unique: HashSet<SpecDigest> = rows.iter().filter_map(|row| row.digest).collect();
    let feasible = rows
        .iter()
        .filter(|row| row.line.contains("\"verdict\": \"feasible\""))
        .count();
    let invalid = rows.iter().filter(|row| row.digest.is_none()).count();
    Ok(SweepReport {
        base_digest,
        rows,
        unique_digests: unique.len(),
        feasible,
        invalid,
    })
}

fn process_point(
    base: &EzSpec,
    point: SweepPoint,
    config: &SchedulerConfig,
    ancestor: Option<&Arc<SynthesisOutcome>>,
    cache: &ResultCache,
) -> SweepRow {
    let mut fields: JsonFields = vec![
        ("point", report::json_string(&point.label())),
        ("periods_pct", point.periods_percent.to_string()),
        ("deadlines_pct", point.deadlines_percent.to_string()),
        ("jitter", point.jitter.to_string()),
    ];
    let derived = match point.apply(base) {
        Ok(derived) => derived,
        Err(error) => {
            fields.push(("verdict", report::json_string("invalid")));
            fields.push(("error", report::json_string(&error.to_string())));
            return SweepRow {
                point,
                digest: None,
                lookup: None,
                line: report::render_compact(&fields),
            };
        }
    };
    let project = Project::new(derived).with_config(config.clone());
    let digest = project_digest(&project);
    let (outcome, lookup) = cache.get_or_compute(digest, || match ancestor {
        Some(ancestor) => compute_outcome_incremental(&project, digest, ancestor),
        None => compute_outcome(&project, digest),
    });
    let verdict = if outcome.feasible {
        "feasible"
    } else {
        "infeasible"
    };
    fields.push(("verdict", report::json_string(verdict)));
    fields.push(("spec_digest", report::json_string(&digest.to_hex())));
    fields.push(("states", outcome.stats.states_visited.to_string()));
    if outcome.feasible {
        // `firings` and `makespan` are already rendered in the cached
        // outcome's field list; copy them rather than re-deriving.
        for key in ["firings", "makespan"] {
            if let Some((_, value)) = outcome.fields.iter().find(|(name, _)| *name == key) {
                fields.push((key, value.clone()));
            }
        }
    } else if let Some(error) = &outcome.error {
        fields.push(("error", report::json_string(error)));
    }
    SweepRow {
        point,
        digest: Some(digest),
        lookup: Some(lookup),
        line: report::render_compact(&fields),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_spec::corpus::small_control;

    fn grid(text: &str) -> SweepGrid {
        SweepGrid::parse(text).expect("grid parses")
    }

    #[test]
    fn rows_are_byte_identical_across_fanout_widths() {
        let spec = small_control();
        let cache = ResultCache::new(64, 1);
        let report = run_sweep(
            &spec,
            &grid("periods:100,150;deadlines:75,100;jitter:0,1"),
            &SweepOptions::default(),
            &cache,
        )
        .expect("sweep runs");
        assert_eq!(report.rows.len(), 8);
        for jobs in [2, 5] {
            let cache = ResultCache::new(64, 1);
            let wide = run_sweep(
                &spec,
                &grid("periods:100,150;deadlines:75,100;jitter:0,1"),
                &SweepOptions {
                    fanout: Parallelism::new(jobs),
                    ..SweepOptions::default()
                },
                &cache,
            )
            .expect("parallel sweep runs");
            assert_eq!(report.render(), wide.render(), "jobs={jobs}");
            assert_eq!(report.unique_digests, wide.unique_digests);
        }
    }

    #[test]
    fn identity_and_duplicate_points_deduplicate_through_the_cache() {
        let spec = small_control();
        let cache = ResultCache::new(64, 1);
        let report = run_sweep(
            &spec,
            // Two identical axis values: four points, two distinct
            // specs — and the identity pair shares the base digest.
            &grid("periods:100,100;deadlines:100,80"),
            &SweepOptions::default(),
            &cache,
        )
        .expect("sweep runs");
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.unique_digests, 2);
        assert_eq!(report.rows[0].digest, Some(report.base_digest));
        assert_eq!(report.rows[0].lookup, Some(Lookup::Hit));
        // Base + 1 genuinely new point = 2 misses total.
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn points_warm_start_from_the_base_outcome() {
        let spec = small_control();
        let cache = ResultCache::new(64, 1);
        let report = run_sweep(
            &spec,
            &grid("deadlines:90"),
            &SweepOptions::default(),
            &cache,
        )
        .expect("sweep runs");
        let digest = report.rows[0].digest.expect("valid point");
        assert_ne!(digest, report.base_digest);
        let (outcome, _) = cache.lookup(digest).expect("cached point");
        assert_eq!(outcome.stats.incr_seed_hits, 1, "seeded from the base");
    }

    #[test]
    fn impossible_points_become_invalid_rows() {
        let spec = ezrt_spec::SpecBuilder::new("tight")
            .task("a", |t| t.computation(8).deadline(10).period(10))
            .build()
            .unwrap();
        let cache = ResultCache::new(16, 1);
        let report = run_sweep(
            &spec,
            &grid("periods:50,100"),
            &SweepOptions::default(),
            &cache,
        )
        .expect("sweep runs");
        assert_eq!(report.invalid, 1);
        assert!(report.rows[0].line.contains("\"verdict\": \"invalid\""));
        assert!(report.rows[0].line.contains("\"error\": "));
        assert!(report.rows[1].line.contains("\"verdict\": \"feasible\""));
    }

    #[test]
    fn oversized_grids_are_refused() {
        let spec = small_control();
        let cache = ResultCache::new(16, 1);
        let values: Vec<String> = (1..=257).map(|v| v.to_string()).collect();
        let oversized = grid(&format!("jitter:{}", values.join(",")));
        let error = run_sweep(&spec, &oversized, &SweepOptions::default(), &cache).unwrap_err();
        assert!(error.contains("257"), "{error}");
        assert_eq!(cache.stats().misses, 0, "refused before any synthesis");
    }
}
