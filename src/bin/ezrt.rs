//! `ezrt` — the ezRealtime command-line tool.
//!
//! The original ezRealtime is an Eclipse GUI; this binary exposes the
//! same flow on the command line, reading `<rt:ez-spec>` XML documents
//! (paper Fig. 7) and driving the pipeline of Fig. 6:
//!
//! ```text
//! ezrt check     spec.xml             validate the specification
//! ezrt schedule  spec.xml             synthesize and report statistics
//! ezrt gantt     spec.xml [from to]   ASCII timeline of the schedule
//! ezrt table     spec.xml             the Fig. 8 schedule table
//! ezrt codegen   spec.xml [target]    emit C (posix_sim|generic|i8051|avr8|arm9|m68k|x86)
//! ezrt pnml      spec.xml             export the net as ISO 15909-2 PNML
//! ezrt dot       spec.xml             export the net as Graphviz DOT
//! ezrt simulate  spec.xml [periods]   execute on the simulated dispatcher
//! ezrt compare   spec.xml             pre-runtime vs online schedulers
//! ezrt analyze   spec.xml             utilization, demand-bound and RTA verdicts
//! ezrt invariants spec.xml            place invariants of the translated net
//! ezrt sweep     spec.xml --grid G    feasibility frontier over a parameter grid
//! ezrt serve     --addr HOST:PORT     run the HTTP synthesis service
//! ezrt batch     specs-dir            synthesize a directory, one JSON row per spec
//! ```
//!
//! Every search is one sequential depth-first search. The global
//! `--jobs N` flag (default 1) sets how many specs `batch`, and how many
//! grid points `sweep`, synthesize at once; it never changes any output.
//! `--por off|stubborn` selects the partial-order reduction level
//! (default `stubborn`);
//! `ezrt schedule --json` emits the
//! search statistics as one flat JSON object for scripting, including
//! the `spec_digest` cache key the server and batch rows share, so the
//! three surfaces are join-able by key.
//!
//! The artifact commands (`schedule`, `table`, `codegen`, `gantt`,
//! `pnml`) render through the shared `ezrt_artifacts` layer — the same
//! code path as the HTTP artifact endpoints, so CLI bytes and server
//! bodies are identical for one spec digest. The global `--cache-dir
//! DIR` flag points them (and `serve`/`batch`) at a persistent digest
//! store: a result synthesized by any surface is reused by every other.
//!
//! All output goes to stdout so results compose with shell pipelines;
//! diagnostics go to stderr and failures exit nonzero.

use ezrealtime::artifacts::{
    compute_outcome, compute_outcome_incremental, ArtifactKind, SpecDigest, SynthesisOutcome,
};
use ezrealtime::codegen::Target;
use ezrealtime::core::Project;
use ezrealtime::server::batch::{run_batch, BatchOptions};
use ezrealtime::server::cache::ResultCache;
use ezrealtime::server::digest::project_digest;
use ezrealtime::server::disk::DiskTier;
use ezrealtime::server::report;
use ezrealtime::server::sweep::{run_sweep, SweepOptions};
use ezrealtime::server::{Server, ServerConfig};
use ezrealtime::sim::{simulate_online, OnlinePolicy};
use ezrealtime::spec::sweep::SweepGrid;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ezrt: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut args: Vec<String> = args.to_vec();
    let jobs = match take_option_value(&mut args, "--jobs")? {
        Some(value) => value
            .parse::<usize>()
            .ok()
            .filter(|&jobs| jobs >= 1)
            .ok_or_else(|| format!("--jobs expects a positive number, found {value:?}"))?,
        None => 1,
    };
    let por = match take_option_value(&mut args, "--por")? {
        Some(value) => ezrealtime::scheduler::PorLevel::parse(&value)
            .ok_or_else(|| format!("--por expects off|stubborn, found {value:?}"))?,
        None => ezrealtime::scheduler::PorLevel::default(),
    };
    let json = take_flag(&mut args, "--json");
    let cache_dir = take_option_value(&mut args, "--cache-dir")?;
    let cache_dir = cache_dir.as_deref();
    let cache_max_bytes = match take_option_value(&mut args, "--cache-max-bytes")? {
        Some(value) => Some(value.parse::<u64>().map_err(|_| {
            format!("--cache-max-bytes expects a number of bytes, found {value:?}")
        })?),
        None => None,
    };
    if cache_max_bytes.is_some() && cache_dir.is_none() {
        return Err("--cache-max-bytes requires --cache-dir".to_owned());
    }
    let warm_from = take_option_value(&mut args, "--warm-from")?;
    let grid = take_option_value(&mut args, "--grid")?;
    let trace = take_flag(&mut args, "--trace");
    let log_file = take_option_value(&mut args, "--log-file")?;

    let Some(command) = args.first() else {
        return Err(usage());
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", usage());
        return Ok(());
    }
    if warm_from.is_some() && command != "schedule" {
        return Err("--warm-from is only supported by `ezrt schedule`".to_owned());
    }
    if grid.is_some() && command != "sweep" {
        return Err("--grid is only supported by `ezrt sweep`".to_owned());
    }
    if log_file.is_some() && command != "serve" {
        return Err("--log-file is only supported by `ezrt serve`".to_owned());
    }
    if trace && command == "serve" {
        return Err(
            "--trace is for one-shot commands; `ezrt serve` exposes GET /v1/metrics instead"
                .to_owned(),
        );
    }
    if trace {
        ezrealtime::obs::set_tracing(true);
    }
    // serve and batch take no spec-file argument; route them before the
    // common load-one-spec path.
    if command == "serve" {
        if json {
            return Err("--json is only supported by `ezrt schedule` and `ezrt batch`".to_owned());
        }
        return serve(
            &mut args,
            jobs,
            por,
            cache_dir,
            cache_max_bytes,
            log_file.as_deref(),
        );
    }
    if command == "batch" {
        return finish_trace(
            trace,
            batch(&mut args, jobs, por, json, cache_dir, cache_max_bytes),
        );
    }
    if json && command != "schedule" {
        return Err("--json is only supported by `ezrt schedule` and `ezrt batch`".to_owned());
    }
    if cache_dir.is_some()
        && !matches!(
            command.as_str(),
            "schedule" | "table" | "codegen" | "gantt" | "pnml" | "sweep"
        )
    {
        return Err(
            "--cache-dir is only supported by schedule, table, codegen, gantt, pnml, sweep, \
             serve and batch"
                .to_owned(),
        );
    }
    let path = args.get(1).ok_or_else(usage)?;
    let document = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let project = Project::from_dsl(&document)
        .map_err(|e| format!("{path}: {e}"))?
        .with_jobs(jobs)
        .with_por(por);
    // The one-shot commands share the server's cache type so every
    // surface funnels through the same tiers: outcome memory + optional
    // disk, and the rendered-byte tier behind the artifact commands.
    let cache = artifact_cache(cache_dir, cache_max_bytes)?;

    let result = match command.as_str() {
        "check" => check(&project),
        "schedule" => schedule(&project, json, &cache, warm_from.as_deref()),
        "gantt" => gantt(&project, args.get(2), args.get(3), &cache),
        "table" => artifact(&project, ArtifactKind::Table, &cache),
        "codegen" => codegen(&project, args.get(2), &cache),
        "pnml" => artifact(&project, ArtifactKind::Pnml, &cache),
        "dot" => {
            println!(
                "{}",
                ezrealtime::tpn::dot::to_dot(project.translate().net())
            );
            Ok(())
        }
        "simulate" => simulate(&project, args.get(2)),
        "sweep" => {
            if let Some(extra) = args.get(2) {
                return Err(format!("sweep: unexpected argument {extra:?}"));
            }
            sweep(&project, grid.as_deref(), &cache)
        }
        "compare" => compare(&project),
        "analyze" => analyze(&project),
        "invariants" => invariants(&project),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    finish_trace(trace, result)
}

/// Prints the aggregated span tree of a `--trace` run to **stderr** —
/// never stdout, whose bytes are the artifact contract shared with the
/// HTTP surface — then passes the command result through.
fn finish_trace(trace: bool, result: Result<(), String>) -> Result<(), String> {
    if trace {
        let tree = ezrealtime::obs::drain_spans();
        eprintln!("ezrt trace:");
        if tree.is_empty() {
            eprintln!("  (no spans recorded)");
        } else {
            for line in tree.render().lines() {
                eprintln!("  {line}");
            }
        }
    }
    result
}

/// Removes `--flag value` from `args`, returning the value when present.
/// A repeated flag is an error — silently honouring one of two
/// contradictory values (`--jobs 2 --jobs 4`) would be a footgun.
fn take_option_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{flag} expects a value"));
    }
    let value = args.remove(at + 1);
    args.remove(at);
    if args.iter().any(|a| a == flag) {
        return Err(format!("{flag} may only be given once"));
    }
    Ok(Some(value))
}

/// Removes a bare `--flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(at);
    true
}

fn usage() -> String {
    "usage: ezrt [--jobs N] [--por LEVEL] [--cache-dir DIR] [--cache-max-bytes B] <command> <spec.xml> [args]\n\
     commands:\n\
     \x20 check     validate the specification\n\
     \x20 schedule  synthesize the pre-runtime schedule and print statistics\n\
     \x20           (--json: machine-readable SearchStats on stdout;\n\
     \x20           --warm-from <file|digest>: seed the search from that\n\
     \x20           earlier spec's cached schedule prefix)\n\
     \x20 gantt     [from to] print an ASCII timeline (default first 120 units)\n\
     \x20 table     print the schedule table as a C array (paper Fig. 8)\n\
     \x20 codegen   [target] emit scheduled C code (posix_sim|generic|i8051|avr8|arm9|m68k|x86)\n\
     \x20 pnml      export the synthesized time Petri net as PNML\n\
     \x20 dot       export the translated net as Graphviz DOT\n\
     \x20 simulate  [periods] execute the schedule on the simulated dispatcher\n\
     \x20 compare   pre-runtime synthesis vs online EDF/RM/DM baselines\n\
     \x20 analyze   analytical schedulability: utilization, demand bound, RTA\n\
     \x20 invariants place invariants (Farkas) of the translated Petri net\n\
     \x20 sweep     --grid \"periods:100,150;deadlines:75,100;jitter:0,2\"\n\
     \x20           feasibility frontier: cross the spec with the grid\n\
     \x20           (percent scales for periods/deadlines, absolute release\n\
     \x20           jitter), one JSON row per point on stdout; points are\n\
     \x20           deduplicated by digest and warm-started from the base\n\
     \x20           spec's outcome (--jobs fans out points; rows are\n\
     \x20           byte-identical regardless of fan-out)\n\
     service commands (no spec.xml argument):\n\
     \x20 serve     --addr HOST:PORT [--cache-cap N] [--workers W]\n\
     \x20           [--max-pending N] run the HTTP synthesis service\n\
     \x20           (POST /v1/schedule|/v1/check|/v1/table|/v1/codegen|/v1/gantt,\n\
     \x20           POST /v1/sweep?grid=...,\n\
     \x20           GET /v1/artifact/<digest>/<kind>, GET /v1/healthz,\n\
     \x20           GET /v1/stats, GET /v1/metrics, POST /v1/shutdown);\n\
     \x20           results are cached by spec digest; --log-file FILE\n\
     \x20           appends one NDJSON access-log line per request\n\
     \x20 batch     <dir> [--json] synthesize every *.xml spec under dir\n\
     \x20           through the same digest cache, one row per spec\n\
     \x20           (--jobs fans out files)\n\
     global flags:\n\
     \x20 --jobs N        how many specs (batch, serve's /v1/sweep) or grid\n\
     \x20                 points (sweep) synthesize at once (default 1); each\n\
     \x20                 search is sequential, so output never depends on N\n\
     \x20 --por LEVEL     partial-order reduction: off | stubborn\n\
     \x20                 (default stubborn: stubborn + sleep sets; off\n\
     \x20                 reproduces the reference search byte-for-byte;\n\
     \x20                 verdicts are identical at both levels)\n\
     \x20 --cache-dir DIR persistent digest store shared by schedule/table/\n\
     \x20                 codegen/gantt/pnml/sweep, serve and batch: results\n\
     \x20                 found there are reused, fresh results are written back\n\
     \x20 --cache-max-bytes B  keep the --cache-dir store under B bytes\n\
     \x20                 (mtime-LRU sweep at startup and after writes;\n\
     \x20                 stale temp files and misnamed entries are reaped)\n\
     \x20 --trace         one-shot commands only: print the aggregated\n\
     \x20                 span tree (parse, translate, search, render, ...)\n\
     \x20                 to stderr after the command; stdout is unchanged"
        .to_owned()
}

/// `ezrt serve --addr HOST:PORT [--cache-cap N] [--workers W]
/// [--max-pending N]`: the long-lived HTTP synthesis service. The
/// global `--jobs` becomes the default `/v1/sweep` fan-out width
/// (overridable per request with `?jobs=N`); `--workers`
/// sizes the connection pool; the global `--cache-dir` adds the
/// persistent cache tier.
fn serve(
    args: &mut Vec<String>,
    jobs: usize,
    por: ezrealtime::scheduler::PorLevel,
    cache_dir: Option<&str>,
    cache_max_bytes: Option<u64>,
    log_file: Option<&str>,
) -> Result<(), String> {
    let addr = take_option_value(args, "--addr")?
        .ok_or_else(|| format!("serve requires --addr HOST:PORT\n{}", usage()))?;
    let cache_capacity = match take_option_value(args, "--cache-cap")? {
        Some(value) => value
            .parse::<usize>()
            .map_err(|_| format!("--cache-cap expects a number of entries, found {value:?}"))?,
        None => 1024,
    };
    let workers = match take_option_value(args, "--workers")? {
        Some(value) => value
            .parse::<usize>()
            .ok()
            .filter(|&workers| workers >= 1)
            .ok_or_else(|| format!("--workers expects a positive number, found {value:?}"))?,
        None => 4,
    };
    let max_pending = match take_option_value(args, "--max-pending")? {
        Some(value) => value.parse::<usize>().map_err(|_| {
            format!("--max-pending expects a number of connections, found {value:?}")
        })?,
        None => 128,
    };
    if let Some(extra) = args.get(1) {
        return Err(format!("serve: unexpected argument {extra:?}"));
    }
    let config = ServerConfig {
        scheduler: ezrealtime::scheduler::SchedulerConfig {
            parallelism: ezrealtime::scheduler::Parallelism::new(jobs),
            por,
            ..ezrealtime::scheduler::SchedulerConfig::default()
        },
        workers,
        cache_capacity,
        cache_shards: 0,
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        cache_max_bytes,
        max_pending,
        log_file: log_file.map(std::path::PathBuf::from),
    };
    let server = Server::start(&addr, config)?;
    println!("ezrt serve: listening on http://{}", server.addr());
    println!(
        "ezrt serve: {workers} worker(s), sweep fan-out {jobs}, por {por}, \
         cache capacity {cache_capacity}"
    );
    if let Some(dir) = cache_dir {
        println!("ezrt serve: persistent cache at {dir}");
    }
    if let Some(path) = log_file {
        println!("ezrt serve: access log at {path}");
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.wait(); // until POST /v1/shutdown; joins every thread
    println!("ezrt serve: shut down cleanly");
    Ok(())
}

/// `ezrt batch <dir> [--json]`: synthesize every `*.xml` spec under a
/// directory through the same queue + digest cache as the server, one
/// row per spec. `--jobs` fans the files out; each file's synthesis is
/// one sequential search, so rows are deterministic and match
/// standalone `ezrt schedule --json` runs field for field.
fn batch(
    args: &mut [String],
    jobs: usize,
    por: ezrealtime::scheduler::PorLevel,
    json: bool,
    cache_dir: Option<&str>,
    cache_max_bytes: Option<u64>,
) -> Result<(), String> {
    let dir = args
        .get(1)
        .ok_or_else(|| format!("batch requires a spec directory\n{}", usage()))?;
    if let Some(extra) = args.get(2) {
        return Err(format!("batch: unexpected argument {extra:?}"));
    }
    let options = BatchOptions {
        fanout: ezrealtime::scheduler::Parallelism::new(jobs),
        scheduler: ezrealtime::scheduler::SchedulerConfig {
            por,
            ..ezrealtime::scheduler::SchedulerConfig::default()
        },
        ..BatchOptions::default()
    };
    let disk = match cache_dir {
        Some(dir) => Some(DiskTier::open_with_budget(dir, cache_max_bytes)?),
        None => None,
    };
    let cache = ResultCache::with_disk(options.cache_capacity, 8, disk);
    let rows = run_batch(std::path::Path::new(dir), &options, &cache)?;
    let mut failures = 0usize;
    for row in &rows {
        if json {
            println!("{}", row.line);
        } else if row.ok {
            // A terse human summary; the full counters live in --json.
            let verdict = if row.line.contains("\"feasible\": true") {
                "feasible"
            } else {
                "infeasible"
            };
            println!("{:<28} {verdict}", row.file);
        } else {
            println!("{:<28} ERROR", row.file);
        }
        if !row.ok {
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(format!("{failures} spec(s) failed to load"));
    }
    Ok(())
}

fn synthesize(project: &Project) -> Result<ezrealtime::core::Outcome, String> {
    project
        .synthesize()
        .map_err(|e| format!("schedule synthesis failed: {e}"))
}

fn check(project: &Project) -> Result<(), String> {
    let spec = project.spec();
    spec.validate().map_err(|e| e.to_string())?;
    println!(
        "ok: {} task(s), {} processor(s), {} message(s), hyperperiod {}",
        spec.task_count(),
        spec.processors().count(),
        spec.messages().count(),
        spec.hyperperiod()
    );
    println!(
        "   {} task instance(s) per schedule period",
        spec.total_instances()
    );
    for (pid, processor) in spec.processors() {
        let utilization = spec.utilization(pid);
        let verdict = if utilization > 1.0 {
            " (OVERLOADED)"
        } else {
            ""
        };
        println!(
            "   {}: utilization {:.3}{verdict}",
            processor.name(),
            utilization
        );
    }
    Ok(())
}

/// Builds the cache the one-shot commands run through: the server's
/// [`ResultCache`] (outcome memory tier + rendered-byte tier), backed
/// by the `--cache-dir` disk store when given — so a result synthesized
/// by any surface (CLI, `ezrt serve`, `ezrt batch`) is reused by every
/// other, and `--cache-max-bytes` garbage-collects the shared
/// directory on open and after writes.
fn artifact_cache(
    cache_dir: Option<&str>,
    cache_max_bytes: Option<u64>,
) -> Result<ResultCache, String> {
    let tier = match cache_dir {
        Some(dir) => Some(DiskTier::open_with_budget(dir, cache_max_bytes)?),
        None => None,
    };
    // A one-shot process holds few outcomes; the tiers are sized for
    // one spec and its artifacts.
    Ok(ResultCache::with_disk(16, 1, tier))
}

/// Obtains the synthesis outcome for `project` through the shared
/// artifact pipeline: the persistent store (when configured) is
/// consulted first — a prior run by any surface is reused without
/// re-searching — and fresh results are written back; otherwise the
/// outcome is computed by the exact code the server's cache runs on a
/// miss.
fn cached_outcome(cache: &ResultCache, project: &Project) -> Arc<SynthesisOutcome> {
    let digest = project_digest(project);
    let (outcome, _lookup) = cache.get_or_compute(digest, || compute_outcome(project, digest));
    outcome
}

/// The `feasible: false` exit path shared by the artifact commands —
/// the render layer's own message, so `schedule`/`gantt` say exactly
/// what `table`/`codegen`/`pnml` (and the HTTP 409) say.
fn infeasible_error(outcome: &SynthesisOutcome) -> String {
    ezrealtime::artifacts::RenderError::Infeasible {
        error: outcome.error.clone(),
    }
    .to_string()
}

/// Renders one artifact of the synthesized (or cache-revived) outcome
/// to stdout — `ezrt table`, `ezrt pnml`, `ezrt codegen` and the
/// default-window `ezrt gantt` all land here, emitting byte-identical
/// output to the corresponding HTTP artifact endpoint (and going
/// through the same rendered-byte tier).
fn artifact(project: &Project, kind: ArtifactKind, cache: &ResultCache) -> Result<(), String> {
    let outcome = cached_outcome(cache, project);
    let artifact = cache
        .render_artifact(&outcome, kind)
        .map_err(|error| error.to_string())?;
    // Every artifact is UTF-8 text by construction.
    print!("{}", String::from_utf8_lossy(&artifact.bytes));
    Ok(())
}

/// Resolves `--warm-from <file|digest>` to the ancestor outcome whose
/// schedule prefix seeds this run's search. A 48-hex argument is a
/// digest looked up in the (memory or `--cache-dir`) cache — absence
/// warns to stderr and runs cold, so scripted edit loops never fail on
/// an evicted ancestor. Anything else is a spec file: it is synthesized
/// through the same cache (a prior run is revived, not re-searched)
/// under the same scheduler config, then used as the ancestor.
fn warm_from_ancestor(
    cache: &ResultCache,
    project: &Project,
    warm_from: &str,
) -> Result<Option<Arc<SynthesisOutcome>>, String> {
    if let Some(digest) = SpecDigest::from_hex(warm_from) {
        match cache.lookup(digest) {
            Some((outcome, _)) if outcome.solution.is_some() => return Ok(Some(outcome)),
            Some(_) => {
                eprintln!("ezrt: --warm-from {warm_from} holds no feasible schedule; running cold");
                return Ok(None);
            }
            None => {
                eprintln!("ezrt: --warm-from {warm_from} is not in the cache; running cold");
                return Ok(None);
            }
        }
    }
    let document = std::fs::read_to_string(warm_from)
        .map_err(|e| format!("cannot read --warm-from {warm_from}: {e}"))?;
    let previous = Project::from_dsl(&document)
        .map_err(|e| format!("{warm_from}: {e}"))?
        .with_config(project.config().clone());
    let outcome = cached_outcome(cache, &previous);
    if outcome.solution.is_none() {
        eprintln!("ezrt: --warm-from {warm_from} has no feasible schedule; running cold");
        return Ok(None);
    }
    Ok(Some(outcome))
}

fn schedule(
    project: &Project,
    json: bool,
    cache: &ResultCache,
    warm_from: Option<&str>,
) -> Result<(), String> {
    // The digest is the cache key of `ezrt serve` and the join key
    // across schedule/batch/server outputs; it covers the parsed spec
    // plus the result-relevant scheduler knobs (never `--jobs`).
    let ancestor = match warm_from {
        Some(source) => warm_from_ancestor(cache, project, source)?,
        None => None,
    };
    let outcome = match ancestor {
        Some(ancestor) => {
            let digest = project_digest(project);
            let (outcome, _) = cache.get_or_compute(digest, || {
                compute_outcome_incremental(project, digest, &ancestor)
            });
            outcome
        }
        None => cached_outcome(cache, project),
    };
    if json {
        // Hand-rolled JSON (the workspace builds offline, without
        // serde): one flat object so bench trajectories can be scripted
        // with jq — rendered by the same `ezrt_artifacts::report` code
        // the HTTP service uses, so the two outputs are byte-identical.
        // The scripting contract holds on failure too: one JSON object
        // on stdout (feasible: false plus the search counters), the
        // human-readable diagnostic on stderr, a nonzero exit.
        println!("{}", report::render_pretty(&outcome.fields));
        if !outcome.feasible {
            return Err(infeasible_error(&outcome));
        }
        return Ok(());
    }
    let Some(solution) = outcome.solution.as_ref() else {
        return Err(infeasible_error(&outcome));
    };
    let violations = outcome
        .fields
        .iter()
        .find(|(key, _)| *key == "violations")
        .map(|(_, value)| value.as_str())
        .unwrap_or("0");
    println!("feasible schedule found");
    println!("  spec digest      {}", outcome.digest);
    println!("  firings          {}", solution.schedule().firings().len());
    println!("  makespan         {}", solution.schedule().makespan());
    println!("  states visited   {}", outcome.stats.states_visited);
    println!("  minimum states   {}", outcome.stats.minimum_states());
    println!("  overhead ratio   {:.4}", outcome.stats.overhead_ratio());
    println!("  backtracks       {}", outcome.stats.backtracks);
    println!("  elapsed          {:?}", outcome.stats.elapsed);
    println!("  validator        {violations} violation(s)");
    if violations != "0" {
        // A nonzero count signals a kernel bug; name the constraints.
        for violation in solution.validate() {
            println!("    {violation}");
        }
    }
    Ok(())
}

fn gantt(
    project: &Project,
    from: Option<&String>,
    to: Option<&String>,
    cache: &ResultCache,
) -> Result<(), String> {
    // The no-argument form is the canonical `gantt` artifact; explicit
    // windows render the same timeline over a custom range.
    if from.is_none() && to.is_none() {
        return artifact(project, ArtifactKind::Gantt, cache);
    }
    let from = parse_number(from, 0)?;
    let default_to = (from + 120).min(project.spec().hyperperiod().max(from + 1));
    let to = parse_number(to, default_to)?;
    if to <= from {
        return Err("gantt window must be non-empty".to_owned());
    }
    let outcome = cached_outcome(cache, project);
    let Some(solution) = outcome.solution.as_ref() else {
        return Err(infeasible_error(&outcome));
    };
    print!("{}", solution.gantt_window(from, to));
    Ok(())
}

fn codegen(project: &Project, target: Option<&String>, cache: &ResultCache) -> Result<(), String> {
    // Target names are owned by `ArtifactKind::parse` — the same table
    // the HTTP `?target=` parameter goes through, so both surfaces
    // accept exactly the same spellings.
    let kind = match target {
        None => ArtifactKind::Codegen(Target::PosixSim),
        Some(target) => ArtifactKind::parse(&format!("codegen:{target}"))?,
    };
    artifact(project, kind, cache)
}

fn simulate(project: &Project, periods: Option<&String>) -> Result<(), String> {
    let periods = parse_number(periods, 1)?.max(1);
    let outcome = synthesize(project)?;
    let report = outcome.execute_for(periods);
    println!(
        "simulated {periods} schedule period(s), horizon {}",
        report.horizon
    );
    println!("  deadline misses  {}", report.deadline_misses.len());
    println!("  release jitter   {}", report.max_release_jitter());
    println!("  preemptions      {}", report.preemptions);
    println!("  context switches {}", report.context_switches);
    println!("  utilization      {:.3}", report.utilization());
    println!("  energy           {}", report.energy);
    for (task, stats) in &report.response {
        println!(
            "  {:<12} response min/mean/max = {}/{:.1}/{}",
            project.spec().task(*task).name(),
            stats.min,
            stats.mean(),
            stats.max
        );
    }
    Ok(())
}

/// `ezrt sweep spec.xml --grid "periods:100,150;deadlines:75,100"`:
/// expand the grid against the base spec and print the feasibility
/// frontier, one JSON row per point on stdout. Rows carry only
/// deterministic fields; the wall-clock / dedup summary goes to stderr
/// so two runs of the same sweep stay byte-identical on stdout.
fn sweep(project: &Project, grid: Option<&str>, cache: &ResultCache) -> Result<(), String> {
    let grid_text = grid.ok_or_else(|| {
        format!(
            "sweep requires --grid, e.g. --grid \"periods:100,150;deadlines:75,100\"\n{}",
            usage()
        )
    })?;
    let grid = SweepGrid::parse(grid_text)?;
    let started = std::time::Instant::now();
    // The global --jobs fans points out across threads; each point is
    // one sequential search, so the rows do not depend on the width.
    let options = SweepOptions {
        fanout: project.config().parallelism,
        scheduler: project.config().clone(),
    };
    let report = run_sweep(project.spec(), &grid, &options, cache)?;
    print!("{}", report.render());
    eprintln!(
        "swept {} point(s): {} unique spec(s), {} feasible, {} invalid, base {} ({} ms)",
        report.rows.len(),
        report.unique_digests,
        report.feasible,
        report.invalid,
        report.base_digest.to_hex(),
        started.elapsed().as_millis()
    );
    Ok(())
}

fn compare(project: &Project) -> Result<(), String> {
    let spec = project.spec();
    println!(
        "{:<14} {:>8} {:>12} {:>14}",
        "scheduler", "misses", "preemptions", "ctx switches"
    );
    match project.synthesize() {
        Ok(outcome) => {
            let report = outcome.execute_for(1);
            println!(
                "{:<14} {:>8} {:>12} {:>14}",
                "pre-runtime",
                report.deadline_misses.len(),
                report.preemptions,
                report.context_switches
            );
        }
        Err(e) => println!("{:<14} {e}", "pre-runtime"),
    }
    for policy in OnlinePolicy::ALL {
        let report = simulate_online(spec, policy, 1);
        println!(
            "{:<14} {:>8} {:>12} {:>14}",
            policy.name(),
            report.execution.deadline_misses.len(),
            report.execution.preemptions,
            report.execution.context_switches
        );
    }
    Ok(())
}

fn analyze(project: &Project) -> Result<(), String> {
    use ezrealtime::sim::analysis;
    let spec = project.spec();
    for (pid, processor) in spec.processors() {
        let tasks_on: Vec<_> = spec.tasks().filter(|(_, t)| t.processor() == pid).collect();
        if tasks_on.is_empty() {
            continue;
        }
        println!("processor {}:", processor.name());
        let utilization = analysis::total_utilization(spec, pid);
        let bound = analysis::liu_layland_bound(tasks_on.len());
        println!("  utilization      {utilization:.3}");
        println!(
            "  liu-layland      {bound:.3} ({})",
            if utilization <= bound {
                "RM-schedulable by the sufficient bound"
            } else {
                "inconclusive for RM"
            }
        );
        match analysis::demand_bound_infeasible(spec, pid) {
            Some(t) => {
                println!("  demand bound     INFEASIBLE under any policy (h(t) > t at t = {t})")
            }
            None => println!("  demand bound     necessary condition holds"),
        }
        println!("  RTA (deadline-monotonic, preemptive):");
        for (task, verdict) in
            analysis::response_time_analysis(spec, pid, |t| spec.task(t).timing().deadline)
        {
            match verdict {
                Some(r) => println!(
                    "    {:<12} worst response {r} (deadline {})",
                    spec.task(task).name(),
                    spec.task(task).timing().deadline
                ),
                None => println!(
                    "    {:<12} DIVERGES (misses its deadline)",
                    spec.task(task).name()
                ),
            }
        }
    }
    Ok(())
}

fn invariants(project: &Project) -> Result<(), String> {
    use ezrealtime::tpn::invariants::place_invariants;
    let tasknet = project.translate();
    let net = tasknet.net();
    let report = place_invariants(net, 100_000);
    println!(
        "{} place invariant(s){}:",
        report.invariants.len(),
        if report.truncated {
            " (budget truncated)"
        } else {
            ""
        }
    );
    for invariant in &report.invariants {
        let terms: Vec<String> = invariant
            .support()
            .map(|(p, w)| {
                let name = net.place(p).name();
                if w == 1 {
                    name.to_owned()
                } else {
                    format!("{w}*{name}")
                }
            })
            .collect();
        println!("  {} = {}", terms.join(" + "), invariant.value(net));
    }
    Ok(())
}

fn parse_number(arg: Option<&String>, default: u64) -> Result<u64, String> {
    match arg {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("expected a number, found {text:?}")),
    }
}
