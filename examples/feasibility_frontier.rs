//! Feasibility frontier: cross a base spec with a parameter grid and
//! watch the verdict flip as deadlines tighten and release jitter grows
//! — the in-process version of `ezrt sweep` / `POST /v1/sweep`.
//!
//! Run with:
//!
//! ```text
//! cargo run --example feasibility_frontier
//! ```

use ezrealtime::core::Project;
use ezrealtime::server::cache::ResultCache;
use ezrealtime::server::sweep::run_sweep;
use ezrealtime::spec::corpus::small_control;
use ezrealtime::spec::sweep::SweepGrid;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = small_control();
    let grid = SweepGrid::parse("periods:60,80,100;deadlines:40,70,100;jitter:0,3")?;

    // Every grid point funnels through the same digest cache the server
    // uses: duplicate points become lookups, and every point
    // warm-starts from the base spec's schedule prefix.
    let cache = ResultCache::new(64, 4);
    let base = Project::new(spec).with_jobs(4);
    let report = run_sweep(&base, &grid, &cache)?;

    // The rows are the frontier: deterministic JSON lines, identical
    // across runs and fan-out widths.
    print!("{}", report.render());
    let stats = cache.stats();
    println!(
        "\n{} points over {:?}: {} unique specs, {} feasible, {} invalid",
        report.rows.len(),
        base.spec().name(),
        report.unique_digests,
        report.feasible,
        report.invalid,
    );
    println!(
        "cache: {} misses (searches actually run), {} hits (deduplicated points)",
        stats.misses, stats.hits
    );
    Ok(())
}
