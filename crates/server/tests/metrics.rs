//! Loopback tests for the observability surface: `GET /v1/metrics`
//! (Prometheus text exposition of the per-server and process-wide
//! registries), the per-request timing headers, and the NDJSON access
//! log. Counters are asserted by *delta between scrapes* so the tests
//! hold regardless of what other requests the same server has answered.

use ezrt_scheduler::SearchStats;
use ezrt_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one `Connection: close` request with extra headers and returns
/// `(status, head, body)`.
fn close_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status, head.to_owned(), body.to_owned())
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{name}: ");
    head.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .map(str::trim)
}

/// A parsed text exposition: `# TYPE` per family plus every sample line.
struct Exposition {
    types: BTreeMap<String, String>,
    samples: BTreeMap<String, f64>,
}

impl Exposition {
    /// Parses the 0.0.4 text format, validating structure as it goes:
    /// every sample belongs to an announced family, `# HELP` precedes
    /// `# TYPE`, families arrive in sorted order.
    fn parse(text: &str) -> Exposition {
        let mut types = BTreeMap::new();
        let mut samples = BTreeMap::new();
        let mut last_family = String::new();
        let mut helped: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().expect("HELP name").to_owned();
                assert!(
                    name > last_family,
                    "families must be sorted: {name} after {last_family}"
                );
                helped = Some(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().expect("TYPE name").to_owned();
                let kind = parts.next().expect("TYPE kind").to_owned();
                assert_eq!(helped.as_deref(), Some(name.as_str()), "HELP precedes TYPE");
                assert!(
                    matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                    "unknown type {kind} for {name}"
                );
                last_family.clone_from(&name);
                types.insert(name, kind);
            } else if !line.is_empty() {
                let (key, value) = line.rsplit_once(' ').expect("sample line");
                let family = key.split('{').next().expect("sample name");
                let family = family
                    .strip_suffix("_bucket")
                    .or_else(|| family.strip_suffix("_sum"))
                    .or_else(|| family.strip_suffix("_count"))
                    .filter(|base| types.contains_key(*base))
                    .unwrap_or(family);
                assert!(
                    types.contains_key(family),
                    "sample {key} outside any announced family"
                );
                let value: f64 = value.parse().unwrap_or_else(|_| {
                    panic!("unparseable sample value in {line:?}");
                });
                samples.insert(key.to_owned(), value);
            }
        }
        Exposition { types, samples }
    }

    fn counter(&self, name: &str) -> u64 {
        assert_eq!(
            self.types.get(name).map(String::as_str),
            Some("counter"),
            "{name} must be an announced counter"
        );
        self.samples[name] as u64
    }

    fn histogram_count(&self, name: &str) -> u64 {
        assert_eq!(
            self.types.get(name).map(String::as_str),
            Some("histogram"),
            "{name} must be an announced histogram"
        );
        self.samples[&format!("{name}_count")] as u64
    }
}

fn scrape(addr: SocketAddr) -> Exposition {
    let (status, head, body) = close_request(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200);
    assert_eq!(
        header(&head, "Content-Type"),
        Some("text/plain; version=0.0.4"),
        "{head}"
    );
    Exposition::parse(&body)
}

fn tiny_spec_xml(name: &str) -> String {
    let spec = ezrt_spec::SpecBuilder::new(name)
        .task("t", |t| t.computation(1).deadline(4).period(4))
        .build()
        .expect("tiny spec");
    ezrt_dsl::to_xml(&spec)
}

fn field<'a>(body: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": ");
    let start = body.find(&marker).unwrap_or_else(|| {
        panic!("missing {key} in {body}");
    }) + marker.len();
    let rest = &body[start..];
    let end = rest.find('\n').unwrap_or(rest.len());
    rest[..end]
        .trim_end()
        .trim_end_matches(',')
        .trim_matches('"')
}

#[test]
fn metrics_exposition_covers_every_subsystem_and_counters_move() {
    // A disk tier too, so the disk-GC families are announced — they
    // register with the tier, not unconditionally.
    let dir = std::env::temp_dir().join(format!("ezrt_metrics_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let before = scrape(addr);
    // Every subsystem must announce its families on a fresh server,
    // before any traffic: the search counters' engine and server
    // families from the counter table, the rest by name.
    let table_families = SearchStats::COUNTERS
        .iter()
        .flat_map(|counter| [counter.engine_family, counter.server_family])
        .flatten();
    for family in [
        "ezrt_cache_hits_total",
        "ezrt_cache_misses_total",
        "ezrt_cache_disk_hits_total",
        "ezrt_rendered_hits_total",
        "ezrt_rendered_misses_total",
        "ezrt_disk_gc_evicted_total",
        "ezrt_disk_gc_reclaimed_bytes_total",
        "ezrt_http_requests_total",
        "ezrt_http_not_modified_total",
        "ezrt_sweep_requests_total",
        "ezrt_sweep_points_total",
        "ezrt_search_runs_total",
    ]
    .into_iter()
    .chain(table_families)
    {
        assert_eq!(
            before.types.get(family).map(String::as_str),
            Some("counter"),
            "missing counter family {family}"
        );
    }
    // No search counter feeds these any more: every search is sequential.
    for family in [
        "ezrt_search_steals_total",
        "ezrt_search_por_overlap_skips_total",
        "ezrt_http_por_overlap_skips_total",
    ] {
        assert!(!before.types.contains_key(family), "retired {family}");
    }
    for family in [
        "ezrt_http_request_micros",
        "ezrt_phase_parse_micros",
        "ezrt_phase_search_micros",
        "ezrt_phase_render_micros",
        "ezrt_search_states_per_second",
        "ezrt_search_frontier_depth",
    ] {
        assert_eq!(
            before.types.get(family).map(String::as_str),
            Some("histogram"),
            "missing histogram family {family}"
        );
    }
    // The spare search memory an idle server keeps is visible before
    // the first search.
    for family in ["ezrt_cache_entries", "ezrt_search_spare_bytes"] {
        assert_eq!(
            before.types.get(family).map(String::as_str),
            Some("gauge"),
            "missing gauge family {family}"
        );
    }
    // Histogram bucket lines must be cumulative with `+Inf` equal to
    // `_count` — spot-check the request histogram shape.
    let inf = before.samples["ezrt_http_request_micros_bucket{le=\"+Inf\"}"];
    assert_eq!(
        inf as u64,
        before.histogram_count("ezrt_http_request_micros"),
        "+Inf bucket must equal _count"
    );

    // Miss: one synthesis, one schedule request.
    let xml = tiny_spec_xml("metrics-one");
    let (status, _, body) = close_request(addr, "POST", "/v1/schedule", &[], &xml);
    assert_eq!(status, 200);
    let digest = field(&body, "spec_digest").to_owned();
    let after_miss = scrape(addr);
    assert_eq!(
        after_miss.counter("ezrt_cache_misses_total"),
        before.counter("ezrt_cache_misses_total") + 1
    );
    assert_eq!(
        after_miss.counter("ezrt_http_schedule_requests_total"),
        before.counter("ezrt_http_schedule_requests_total") + 1
    );
    assert!(
        after_miss.counter("ezrt_search_runs_total") > before.counter("ezrt_search_runs_total"),
        "a miss must run the engine"
    );
    assert!(
        after_miss.histogram_count("ezrt_phase_search_micros")
            == before.histogram_count("ezrt_phase_search_micros") + 1,
        "a miss times its search phase"
    );

    // Hit: cache moves, search does not.
    let (status, _, _) = close_request(addr, "POST", "/v1/schedule", &[], &xml);
    assert_eq!(status, 200);
    let after_hit = scrape(addr);
    assert_eq!(
        after_hit.counter("ezrt_cache_hits_total"),
        after_miss.counter("ezrt_cache_hits_total") + 1
    );
    assert_eq!(
        after_hit.counter("ezrt_cache_misses_total"),
        after_miss.counter("ezrt_cache_misses_total")
    );
    assert_eq!(
        after_hit.histogram_count("ezrt_phase_search_micros"),
        after_miss.histogram_count("ezrt_phase_search_micros"),
        "a hit must not time a search phase"
    );

    // Conditional 304 on the artifact route.
    let etag = format!("\"{digest}:table\"");
    let target = format!("/v1/artifact/{digest}/table");
    let (status, _, _) = close_request(addr, "GET", &target, &[("If-None-Match", &etag)], "");
    assert_eq!(status, 304);
    let after_304 = scrape(addr);
    assert_eq!(
        after_304.counter("ezrt_http_not_modified_total"),
        after_hit.counter("ezrt_http_not_modified_total") + 1
    );

    // Sweep: both the request counter and the per-point counter move.
    let (status, _, sweep_body) = close_request(
        addr,
        "POST",
        "/v1/sweep?grid=periods:100,150",
        &[],
        &tiny_spec_xml("metrics-sweep"),
    );
    assert_eq!(status, 200);
    let points = sweep_body.lines().filter(|l| !l.is_empty()).count() as u64;
    assert!(points > 0, "sweep returned no rows: {sweep_body}");
    let after_sweep = scrape(addr);
    assert_eq!(
        after_sweep.counter("ezrt_sweep_requests_total"),
        after_304.counter("ezrt_sweep_requests_total") + 1
    );
    assert_eq!(
        after_sweep.counter("ezrt_sweep_points_total"),
        after_304.counter("ezrt_sweep_points_total") + points
    );

    // The scrape itself rides the same request path: the HTTP request
    // counter is strictly monotonic across all of the above.
    assert!(
        after_sweep.counter("ezrt_http_requests_total")
            > before.counter("ezrt_http_requests_total") + 4
    );
    // /v1/stats must keep serving its frozen JSON shape alongside.
    let (status, _, stats) = close_request(addr, "GET", "/v1/stats", &[], "");
    assert_eq!(status, 200);
    assert!(stats.contains("\"cache_hits\": "), "{stats}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timing_headers_ride_every_artifact_response() {
    let dir = std::env::temp_dir().join(format!("ezrt_timing_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");
    let log_path = dir.join("access.ndjson");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            log_file: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let xml = tiny_spec_xml("metrics-timing");

    // Miss: the timing header parses as microseconds and Server-Timing
    // names the miss phases, search included.
    let (status, head, _body) = close_request(addr, "POST", "/v1/table", &[], &xml);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Ezrt-Cache"), Some("miss"), "{head}");
    let elapsed: u64 = header(&head, "X-Ezrt-Elapsed-Micros")
        .expect("X-Ezrt-Elapsed-Micros on artifact responses")
        .parse()
        .expect("microsecond integer");
    assert!(elapsed > 0, "{head}");
    let timing = header(&head, "Server-Timing").expect("Server-Timing on routed responses");
    for phase in ["parse;dur=", "digest;dur=", "search;dur=", "total;dur="] {
        assert!(timing.contains(phase), "missing {phase} in {timing}");
    }
    // One clock reading is the total on every surface.
    let total = format!("total;dur={:.3}", elapsed as f64 / 1000.0);
    assert!(timing.ends_with(&total), "{total} vs {timing}");

    // Hit: no search phase, but the header set persists.
    let (status, head, _) = close_request(addr, "POST", "/v1/table", &[], &xml);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Ezrt-Cache"), Some("hit"), "{head}");
    assert!(header(&head, "X-Ezrt-Elapsed-Micros").is_some(), "{head}");
    let timing = header(&head, "Server-Timing").expect("Server-Timing on hits");
    assert!(
        !timing.contains("search;dur="),
        "hit timed a search: {timing}"
    );
    assert!(timing.contains("cache;dur="), "{timing}");

    // The GET artifact route carries the same pair; 304s keep them too
    // (the work measured is the conditional check itself).
    let digest = {
        let marker = "ETag: \"";
        let start = head.find(marker).expect("ETag header") + marker.len();
        head[start..start + head[start..].find(':').expect("digest separator")].to_owned()
    };
    let target = format!("/v1/artifact/{digest}/table");
    let (status, head, _) = close_request(addr, "GET", &target, &[], "");
    assert_eq!(status, 200);
    assert!(header(&head, "X-Ezrt-Elapsed-Micros").is_some(), "{head}");
    let etag = format!("\"{digest}:table\"");
    let (status, head, _) = close_request(addr, "GET", &target, &[("If-None-Match", &etag)], "");
    assert_eq!(status, 304);
    assert!(header(&head, "Server-Timing").is_some(), "{head}");

    server.stop(); // joins every worker: all lines flushed
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let miss = log.lines().next().expect("the miss is logged");
    assert!(
        miss.contains(&format!("\"elapsed_micros\":{elapsed},")),
        "{elapsed} vs {miss}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn access_log_appends_one_valid_ndjson_line_per_request() {
    let dir = std::env::temp_dir().join(format!("ezrt_log_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");
    let log_path = dir.join("access.ndjson");

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            log_file: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let xml = tiny_spec_xml("metrics-log");
    let (status, _, _) = close_request(addr, "POST", "/v1/schedule", &[], &xml);
    assert_eq!(status, 200);
    let (status, _, _) = close_request(addr, "POST", "/v1/schedule", &[], &xml);
    assert_eq!(status, 200);
    let (status, _, _) = close_request(addr, "GET", "/v1/healthz", &[], "");
    assert_eq!(status, 200);
    server.stop(); // joins every worker: all lines flushed

    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "one line per routed request: {log}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"t_micros\":",
            "\"method\":",
            "\"path\":",
            "\"status\":",
            "\"elapsed_micros\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"path\":\"/v1/healthz\""),
        "{}",
        lines[2]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `# HELP` and `# TYPE` line a fresh server's `/v1/metrics`
/// prints with a disk tier, in render order. Without one, the same
/// lines minus the eight `ezrt_disk_*` families. Scrapers key on these
/// names, types and help texts, so a change here is a breaking change.
const FAMILIES_WITH_DISK_TIER: &str = "\
# HELP ezrt_cache_capacity Configured outcome-entry bound (0 = memory tier disabled).
# TYPE ezrt_cache_capacity gauge
# HELP ezrt_cache_disk_hits_total Requests revived from the disk tier without a synthesis.
# TYPE ezrt_cache_disk_hits_total counter
# HELP ezrt_cache_entries Completed outcomes resident in the memory tier.
# TYPE ezrt_cache_entries gauge
# HELP ezrt_cache_evictions_total Outcome entries evicted under LRU pressure.
# TYPE ezrt_cache_evictions_total counter
# HELP ezrt_cache_hits_total Requests served from a completed in-memory cache entry.
# TYPE ezrt_cache_hits_total counter
# HELP ezrt_cache_inflight Syntheses currently in flight.
# TYPE ezrt_cache_inflight gauge
# HELP ezrt_cache_joined_total Requests that waited on another request's in-flight synthesis.
# TYPE ezrt_cache_joined_total counter
# HELP ezrt_cache_misses_total Synthesis runs started (one per singleflight group).
# TYPE ezrt_cache_misses_total counter
# HELP ezrt_disk_gc_evicted_total Valid disk entries evicted by the byte-budget sweep.
# TYPE ezrt_disk_gc_evicted_total counter
# HELP ezrt_disk_gc_reaped_total Stale temp files and misnamed entries reaped by sweeps.
# TYPE ezrt_disk_gc_reaped_total counter
# HELP ezrt_disk_gc_reclaimed_bytes_total Total bytes reclaimed by disk-tier sweeps.
# TYPE ezrt_disk_gc_reclaimed_bytes_total counter
# HELP ezrt_disk_load_errors_total Disk-tier files that failed verification or decoding.
# TYPE ezrt_disk_load_errors_total counter
# HELP ezrt_disk_load_misses_total Disk-tier lookups that found no file.
# TYPE ezrt_disk_load_misses_total counter
# HELP ezrt_disk_loads_total Disk-tier entries successfully loaded and decoded.
# TYPE ezrt_disk_loads_total counter
# HELP ezrt_disk_write_errors_total Disk-tier writes that failed (ignored, memory tier keeps serving).
# TYPE ezrt_disk_write_errors_total counter
# HELP ezrt_disk_writes_total Disk-tier entries successfully written.
# TYPE ezrt_disk_writes_total counter
# HELP ezrt_http_artifact_requests_total Artifact requests (GET /v1/artifact and the artifact POST routes).
# TYPE ezrt_http_artifact_requests_total counter
# HELP ezrt_http_connections_total Connections accepted into the worker queue.
# TYPE ezrt_http_connections_total counter
# HELP ezrt_http_errors_total Responses with status 400 or above.
# TYPE ezrt_http_errors_total counter
# HELP ezrt_http_not_modified_total 304 Not Modified responses (conditional hits).
# TYPE ezrt_http_not_modified_total counter
# HELP ezrt_http_por_sleep_skips_total Candidates dropped by sleep-set filtering.
# TYPE ezrt_http_por_sleep_skips_total counter
# HELP ezrt_http_por_stubborn_skips_total Candidates dropped by stubborn-set reduction.
# TYPE ezrt_http_por_stubborn_skips_total counter
# HELP ezrt_http_request_micros Routed request duration in microseconds (parse through response enqueue).
# TYPE ezrt_http_request_micros histogram
# HELP ezrt_http_requests_total HTTP requests parsed.
# TYPE ezrt_http_requests_total counter
# HELP ezrt_http_response_bytes Response body sizes in bytes.
# TYPE ezrt_http_response_bytes histogram
# HELP ezrt_http_schedule_requests_total POST /v1/schedule requests.
# TYPE ezrt_http_schedule_requests_total counter
# HELP ezrt_http_shed_connections_total Connections shed with 503 because the accept queue was full.
# TYPE ezrt_http_shed_connections_total counter
# HELP ezrt_http_workers Connection worker threads.
# TYPE ezrt_http_workers gauge
# HELP ezrt_http_write_micros Socket write+flush duration in microseconds per response batch.
# TYPE ezrt_http_write_micros histogram
# HELP ezrt_incr_replayed_total Seeded firings replayed before the search took over.
# TYPE ezrt_incr_replayed_total counter
# HELP ezrt_incr_seed_hits_total Searches warm-started from an ancestor's schedule prefix.
# TYPE ezrt_incr_seed_hits_total counter
# HELP ezrt_incr_states_saved_total States warm starts avoided visiting, relative to their ancestor's run.
# TYPE ezrt_incr_states_saved_total counter
# HELP ezrt_phase_cache_micros Cache lookup/coordination phase duration in microseconds.
# TYPE ezrt_phase_cache_micros histogram
# HELP ezrt_phase_digest_micros Digest computation phase duration in microseconds.
# TYPE ezrt_phase_digest_micros histogram
# HELP ezrt_phase_parse_micros Spec parse phase duration in microseconds.
# TYPE ezrt_phase_parse_micros histogram
# HELP ezrt_phase_render_micros Artifact render phase duration in microseconds.
# TYPE ezrt_phase_render_micros histogram
# HELP ezrt_phase_search_micros Synthesis/search phase duration in microseconds.
# TYPE ezrt_phase_search_micros histogram
# HELP ezrt_phase_warm_micros Warm-start ancestor resolution phase duration in microseconds.
# TYPE ezrt_phase_warm_micros histogram
# HELP ezrt_rendered_bytes Bytes of the rendered artifacts memoized on resident outcomes.
# TYPE ezrt_rendered_bytes gauge
# HELP ezrt_rendered_capacity Rendered-entry bound: outcome capacity times distinct kinds (0 = none memoized).
# TYPE ezrt_rendered_capacity gauge
# HELP ezrt_rendered_entries Rendered artifacts memoized on resident outcomes.
# TYPE ezrt_rendered_entries gauge
# HELP ezrt_rendered_evictions_total Memoized renderings dropped with their evicted outcomes.
# TYPE ezrt_rendered_evictions_total counter
# HELP ezrt_rendered_hits_total Artifact requests served from memoized rendered bytes.
# TYPE ezrt_rendered_hits_total counter
# HELP ezrt_rendered_misses_total Artifact requests that ran the render.
# TYPE ezrt_rendered_misses_total counter
# HELP ezrt_search_backtracks_total Backtracking steps: frames popped after exhausting their candidates.
# TYPE ezrt_search_backtracks_total counter
# HELP ezrt_search_elapsed_micros Search wall-clock per completed run, in microseconds.
# TYPE ezrt_search_elapsed_micros histogram
# HELP ezrt_search_frontier_depth DFS frontier depth, sampled every 1024 search-loop ticks.
# TYPE ezrt_search_frontier_depth histogram
# HELP ezrt_search_por_sleep_skips_total Candidates dropped by sleep-set filtering.
# TYPE ezrt_search_por_sleep_skips_total counter
# HELP ezrt_search_por_stubborn_skips_total Candidates dropped by stubborn-set reduction.
# TYPE ezrt_search_por_stubborn_skips_total counter
# HELP ezrt_search_runs_total Completed synthesis searches (feasible, infeasible or budget-aborted).
# TYPE ezrt_search_runs_total counter
# HELP ezrt_search_spare_bytes Bytes the idle spare holds: a finished search's arena, dead set, frames and path, kept for the next search.
# TYPE ezrt_search_spare_bytes gauge
# HELP ezrt_search_states_per_second Exploration throughput of completed searches, in states per second.
# TYPE ezrt_search_states_per_second histogram
# HELP ezrt_search_states_total States visited, counting the initial state and pruned successors.
# TYPE ezrt_search_states_total counter
# HELP ezrt_sweep_points_total Grid points expanded by completed sweeps.
# TYPE ezrt_sweep_points_total counter
# HELP ezrt_sweep_requests_total POST /v1/sweep requests (any status).
# TYPE ezrt_sweep_requests_total counter
# HELP ezrt_uptime_seconds Seconds since the server started.
# TYPE ezrt_uptime_seconds gauge";

fn family_lines(config: ServerConfig) -> String {
    let server = Server::start("127.0.0.1:0", config).expect("server starts");
    let (status, _, body) = close_request(server.addr(), "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200);
    server.stop();
    let lines: Vec<&str> = body.lines().filter(|line| line.starts_with("# ")).collect();
    lines.join("\n")
}

#[test]
fn metric_families_are_frozen_for_a_fresh_server() {
    let dir = std::env::temp_dir().join(format!("ezrt_families_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let with_disk = family_lines(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(with_disk, FAMILIES_WITH_DISK_TIER);

    let without_disk = family_lines(ServerConfig::default());
    let expected: Vec<&str> = FAMILIES_WITH_DISK_TIER
        .lines()
        .filter(|line| !line.contains(" ezrt_disk_"))
        .collect();
    assert_eq!(FAMILIES_WITH_DISK_TIER.lines().count() - expected.len(), 16);
    assert_eq!(without_disk, expected.join("\n"));
}
