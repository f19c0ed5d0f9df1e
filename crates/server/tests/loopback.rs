//! Loopback integration tests for the HTTP synthesis service: a real
//! `TcpListener` on an ephemeral port, a std-only test client, and the
//! cache behaviours the service exists for — singleflight coalescing,
//! hit/miss reporting, LRU eviction.

use ezrt_scheduler::{SchedulerConfig, SearchStats};
use ezrt_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

/// Sends one HTTP/1.1 request and returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    request_on(stream, method, target, body)
}

/// Same, over an already-open connection (the singleflight stress test
/// pre-connects so all requests are in flight together). Sends
/// `Connection: close` so `read_to_string` sees EOF right after the
/// response; the keep-alive path has its own test below.
fn request_on(mut stream: TcpStream, method: &str, target: &str, body: &str) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Extracts the rendered value of `key` from a flat JSON body.
fn field<'a>(body: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": ");
    let start = body.find(&marker).unwrap_or_else(|| {
        panic!("missing {key} in {body}");
    }) + marker.len();
    // One field per line in the pretty rendering: value runs to the
    // end of the line, minus the separating comma.
    let rest = &body[start..];
    let end = rest.find('\n').unwrap_or(rest.len());
    rest[..end].trim_end().trim_end_matches(',')
}

fn server(config: ServerConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("server starts")
}

fn small_control_xml() -> String {
    ezrt_dsl::to_xml(&ezrt_spec::corpus::small_control())
}

/// A one-task spec whose only distinguishing feature is its name —
/// cheap to synthesize, distinct digest per name.
fn tiny_spec_xml(name: &str) -> String {
    let spec = ezrt_spec::SpecBuilder::new(name)
        .task("t", |t| t.computation(1).deadline(4).period(4))
        .build()
        .expect("tiny spec");
    ezrt_dsl::to_xml(&spec)
}

/// A workload whose synthesis takes long enough (tens of thousands of
/// states against a tight state budget) that concurrently posted
/// identical requests must join the first one's in-flight search.
fn heavy_spec_xml() -> String {
    let spec = ezrt_spec::generate::synthetic_spec(
        &ezrt_spec::generate::WorkloadConfig {
            tasks: 10,
            total_utilization: 0.55,
            periods: vec![50, 100, 200, 400],
            preemptive_fraction: 0.0,
            precedence_probability: 0.1,
            exclusion_probability: 0.1,
            constrained_deadlines: true,
        },
        11, // the bench's infeasible sweep seed: exhaustion-shaped search
    );
    ezrt_dsl::to_xml(&spec)
}

#[test]
fn healthz_stats_and_routing() {
    let server = server(ServerConfig::default());
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    // Every search counter with a server family is served under its
    // field name.
    let search_keys = SearchStats::COUNTERS
        .iter()
        .filter(|counter| counter.server_family.is_some())
        .map(|counter| counter.field);
    for key in [
        "uptime_ms",
        "workers",
        "default_por",
        "cache_hits",
        "cache_misses",
        "cache_joined",
        "cache_evictions",
        "cache_inflight",
        "not_modified",
        "rendered_hits",
        "rendered_misses",
        "rendered_evictions",
        "rendered_bytes",
        "disk_gc_evicted",
        "disk_gc_reaped",
        "disk_gc_reclaimed_bytes",
    ]
    .into_iter()
    .chain(search_keys)
    {
        assert!(
            body.contains(&format!("\"{key}\": ")),
            "missing {key}: {body}"
        );
    }

    let (status, _) = request(addr, "GET", "/v1/nonsense", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/schedule", "");
    assert_eq!(status, 405);
    let (status, body) = request(addr, "POST", "/v1/schedule", "<nonsense/>");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\": "), "{body}");
    let (status, _) = request(addr, "POST", "/v1/schedule?jobs=zero", &small_control_xml());
    assert_eq!(status, 400);
    // `?jobs=` (the sweep fan-out width) is validated and bounded on
    // every spec route: a client cannot make one POST spawn an arbitrary
    // number of threads.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/schedule?jobs=1000000",
        &small_control_xml(),
    );
    assert_eq!(status, 400);
    assert!(body.contains("jobs expects"), "{body}");
    // An unknown level and the retired `classic` level are both bad.
    for level in ["aggressive", "classic"] {
        let target = format!("/v1/schedule?por={level}");
        let (status, body) = request(addr, "POST", &target, &small_control_xml());
        assert_eq!(status, 400, "{level}");
        assert!(body.contains("por expects off|stubborn"), "{body}");
    }

    server.stop();
}

/// The exact `/v1/stats` body of a fresh server with a fixed config:
/// every key, in order, with its number format. Clients parse this
/// body, so a change here is a breaking change. Only `uptime_ms` moves
/// between runs; it is checked for its three-decimal format and then
/// masked.
#[test]
fn stats_body_is_frozen_for_a_fresh_server() {
    let server = server(ServerConfig {
        workers: 3,
        cache_capacity: 100,
        max_pending: 64,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Two requests down one connection, so the stats request makes 3
    // over 2 connections and the ratio has a fractional part.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    for _ in 0..2 {
        let (status, _, _, _) = keep_alive_request(&mut stream, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
    }
    drop(stream);
    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);

    let uptime = field(&body, "uptime_ms");
    let (whole, fraction) = uptime.split_once('.').expect("uptime has a decimal point");
    assert!(
        !whole.is_empty() && whole.bytes().all(|b| b.is_ascii_digit()),
        "{uptime}"
    );
    assert!(
        fraction.len() == 3 && fraction.bytes().all(|b| b.is_ascii_digit()),
        "{uptime}"
    );
    let masked = body.replacen(
        &format!("\"uptime_ms\": {uptime},"),
        "\"uptime_ms\": UPTIME,",
        1,
    );
    let expected = "{
  \"status\": \"ok\",
  \"uptime_ms\": UPTIME,
  \"workers\": 3,
  \"default_jobs\": 1,
  \"default_por\": \"stubborn\",
  \"connections\": 2,
  \"requests\": 3,
  \"requests_per_connection\": 1.500,
  \"max_pending\": 64,
  \"shed_connections\": 0,
  \"schedule_requests\": 0,
  \"artifact_requests\": 0,
  \"sweep_requests\": 0,
  \"sweep_points\": 0,
  \"http_errors\": 0,
  \"not_modified\": 0,
  \"incr_seed_hits\": 0,
  \"incr_replayed\": 0,
  \"incr_states_saved\": 0,
  \"por_stubborn_skips\": 0,
  \"por_sleep_skips\": 0,
  \"cache_capacity\": 100,
  \"cache_entries\": 0,
  \"cache_inflight\": 0,
  \"cache_hits\": 0,
  \"cache_disk_hits\": 0,
  \"cache_misses\": 0,
  \"cache_joined\": 0,
  \"cache_evictions\": 0,
  \"rendered_capacity\": 400,
  \"rendered_entries\": 0,
  \"rendered_hits\": 0,
  \"rendered_misses\": 0,
  \"rendered_evictions\": 0,
  \"rendered_bytes\": 0,
  \"disk_writes\": 0,
  \"disk_load_errors\": 0,
  \"disk_gc_evicted\": 0,
  \"disk_gc_reaped\": 0,
  \"disk_gc_reclaimed_bytes\": 0
}";
    assert_eq!(masked, expected);

    server.stop();
}

#[test]
fn por_query_selects_the_reduction_level() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    // The reduction level is result-relevant, so each level keys its own
    // cache entry — the digests must differ while the verdicts agree.
    let (status, stubborn) = request(addr, "POST", "/v1/schedule?por=stubborn", &xml);
    assert_eq!(status, 200);
    let (status, off) = request(addr, "POST", "/v1/schedule?por=off", &xml);
    assert_eq!(status, 200);
    for body in [&stubborn, &off] {
        assert!(body.contains("\"feasible\": true"), "{body}");
    }
    assert_ne!(field(&stubborn, "spec_digest"), field(&off, "spec_digest"));

    // Without the override the server default (stubborn) applies and the
    // explicit request is a cache hit on the same digest.
    let (status, default) = request(addr, "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    assert_eq!(
        field(&default, "spec_digest"),
        field(&stubborn, "spec_digest")
    );
    assert_eq!(field(&default, "cache"), "\"hit\"");

    server.stop();
}

#[test]
fn schedule_misses_then_hits_with_a_stable_digest() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    let (status, first) = request(addr, "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    assert_eq!(field(&first, "feasible"), "true");
    assert_eq!(field(&first, "cache"), "\"miss\"");
    let digest = field(&first, "spec_digest").to_owned();
    assert_eq!(digest.len(), 50, "48 hex chars plus quotes: {digest}");

    // Same document, extra whitespace: same digest, served from cache.
    let noisy = xml.replace("><", ">\n  <");
    let (status, second) = request(addr, "POST", "/v1/schedule", &noisy);
    assert_eq!(status, 200);
    assert_eq!(field(&second, "cache"), "\"hit\"");
    assert_eq!(field(&second, "spec_digest"), digest);
    // Identical bodies except the cache field.
    assert_eq!(
        first.replace("\"cache\": \"miss\"", ""),
        second.replace("\"cache\": \"hit\"", "")
    );

    // The digest joins with the CLI-side computation.
    let project = ezrt_core::Project::from_dsl(&xml).expect("spec parses");
    let expected = ezrt_server::digest::project_digest(&project).to_hex();
    assert_eq!(digest, format!("\"{expected}\""));

    // /v1/check reports the same digest for the same document.
    let (status, check) = request(addr, "POST", "/v1/check", &noisy);
    assert_eq!(status, 200);
    assert_eq!(field(&check, "ok"), "true");
    assert_eq!(field(&check, "spec_digest"), digest);
    assert_eq!(field(&check, "tasks"), "4");

    server.stop();
}

#[test]
fn concurrent_identical_requests_singleflight_onto_one_synthesis() {
    // A tight state budget bounds the search: the synthesis fails fast
    // and deterministically after ~40k states, long enough (hundreds of
    // milliseconds unoptimized) that every concurrently posted request
    // joins the first one's flight.
    let threads = 6;
    let server = server(ServerConfig {
        scheduler: ezrt_scheduler::SchedulerConfig {
            max_states: 40_000,
            ..ezrt_scheduler::SchedulerConfig::default()
        },
        workers: threads + 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let xml = heavy_spec_xml();

    // Pre-connect so all requests hit worker threads simultaneously.
    let streams: Vec<TcpStream> = (0..threads)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let barrier = Barrier::new(threads);
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let barrier = &barrier;
                let xml = &xml;
                scope.spawn(move || {
                    barrier.wait();
                    let (status, body) = request_on(stream, "POST", "/v1/schedule", xml);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one synthesis ran; every response is byte-identical.
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "cache_misses"), "1", "{stats}");
    assert_eq!(
        field(&stats, "cache_joined"),
        (threads - 1).to_string(),
        "{stats}"
    );
    assert_eq!(field(&stats, "cache_inflight"), "0", "{stats}");
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all singleflight bodies identical");
    }
    assert_eq!(field(&bodies[0], "cache"), "\"miss\"");
    assert_eq!(field(&bodies[0], "feasible"), "false");

    // A later request is a plain cache hit.
    let (_, after) = request(addr, "POST", "/v1/schedule", &xml);
    assert_eq!(field(&after, "cache"), "\"hit\"");

    server.stop();
}

/// A search cut off by the time budget has a load-dependent verdict: no
/// tier keeps it, so the same request searches again.
#[test]
fn time_budget_aborts_are_never_cached() {
    let dir = std::env::temp_dir().join(format!("ezrt_time_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = server(ServerConfig {
        scheduler: SchedulerConfig {
            max_time: Duration::from_millis(1),
            ..SchedulerConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let xml = heavy_spec_xml();
    for _ in 0..2 {
        let (status, body) = request(addr, "POST", "/v1/schedule", &xml);
        assert_eq!(status, 200);
        assert!(body.contains("time limit exceeded"), "{body}");
        assert_eq!(field(&body, "cache"), "\"miss\"");
    }
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "cache_entries"), "0", "{stats}");
    assert_eq!(field(&stats, "cache_misses"), "2", "{stats}");
    assert_eq!(field(&stats, "disk_writes"), "0", "{stats}");
    server.stop();
    let files = std::fs::read_dir(&dir).expect("cache dir exists").count();
    assert_eq!(files, 0, "nothing persisted under {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_pressure_re_misses_an_evicted_digest() {
    // One shard and two entries keep the LRU order fully deterministic.
    let server = server(ServerConfig {
        cache_capacity: 2,
        cache_shards: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let (a, b, c) = (tiny_spec_xml("a"), tiny_spec_xml("b"), tiny_spec_xml("c"));

    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &a).1, "cache"),
        "\"miss\""
    );
    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &b).1, "cache"),
        "\"miss\""
    );
    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &a).1, "cache"),
        "\"hit\""
    );
    // Third distinct digest: evicts b (the least recently used).
    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &c).1, "cache"),
        "\"miss\""
    );
    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &a).1, "cache"),
        "\"hit\""
    );
    // b was evicted under pressure, so it misses again.
    assert_eq!(
        field(&request(addr, "POST", "/v1/schedule", &b).1, "cache"),
        "\"miss\""
    );

    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "cache_entries"), "2", "{stats}");
    let evictions: u64 = field(&stats, "cache_evictions").parse().expect("number");
    assert!(evictions >= 2, "{stats}");

    server.stop();
}

/// A keep-alive client: sends one request on an open connection and
/// reads exactly one response by honouring `Content-Length`, returning
/// the parsed pieces plus whether the server announced a close.
fn keep_alive_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &str,
) -> (u16, String, String, bool) {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_one_response(stream)
}

/// Reads one `Content-Length`-delimited response: `(status, headers,
/// body, server_will_close)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String, bool) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read header byte");
        assert!(n > 0, "connection closed mid-header");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 headers");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|value| value.trim().parse().ok())
        .expect("Content-Length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    let close = head.contains("Connection: close");
    (
        status,
        head,
        String::from_utf8(body).expect("UTF-8 body"),
        close,
    )
}

#[test]
fn jobs_query_changes_no_schedule_and_shares_the_entry() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    let (status, first) = request(addr, "POST", "/v1/schedule?jobs=2", &xml);
    assert_eq!(status, 200);
    assert_eq!(field(&first, "cache"), "\"miss\"");
    assert!(!first.contains("\"jobs\""), "{first}");

    // The digest ignores jobs, so a jobs=1 request for the same spec is
    // a hit on the very same result.
    let (_, second) = request(addr, "POST", "/v1/schedule", &xml);
    assert_eq!(field(&second, "cache"), "\"hit\"");
    for key in ["spec_digest", "states_visited", "firings", "makespan"] {
        assert_eq!(field(&second, key), field(&first, key), "{key}");
    }

    server.stop();
}

#[test]
fn http11_connections_are_kept_alive_and_counted() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    // Four requests down one HTTP/1.1 connection (no Connection header:
    // keep-alive is the protocol default).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    for _ in 0..2 {
        let (status, _, body, close) = keep_alive_request(&mut stream, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        assert!(!close, "healthz must not close a keep-alive connection");
    }
    let (status, _, body, close) = keep_alive_request(&mut stream, "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    assert!(body.contains("\"feasible\": true"), "{body}");
    assert!(!close, "schedule must not close a keep-alive connection");
    // An explicit Connection: close is honoured on the same connection.
    let head =
        "GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    stream
        .write_all(head.as_bytes())
        .expect("write close request");
    let (status, _, _, close) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(close, "explicit Connection: close must be honoured");
    // The server actually closes: the next read sees EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0);
    drop(stream);

    // One connection carried 4 requests; the stats request makes 5 over
    // 2 connections.
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "connections"), "2", "{stats}");
    assert_eq!(field(&stats, "requests"), "5", "{stats}");
    assert_eq!(field(&stats, "requests_per_connection"), "2.500", "{stats}");

    server.stop();
}

#[test]
fn keep_alive_connections_are_capped_per_connection() {
    let server = server(ServerConfig::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let cap = ezrt_server::http::MAX_CONNECTION_REQUESTS;
    for served in 1..=cap {
        let (status, _, _, close) = keep_alive_request(&mut stream, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
        assert_eq!(
            close,
            served == cap,
            "request {served}/{cap} announced the wrong connection fate"
        );
    }
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).expect("EOF after the cap"),
        0,
        "the server must close after {cap} requests"
    );

    server.stop();
}

#[test]
fn overload_is_shed_with_503_retry_after() {
    // One worker, a queue bound of one: while the worker is busy with
    // one request, the first extra connection queues and the second
    // must be shed instead of queueing unboundedly.
    let server = server(ServerConfig {
        scheduler: ezrt_scheduler::SchedulerConfig {
            max_states: 40_000,
            ..ezrt_scheduler::SchedulerConfig::default()
        },
        workers: 1,
        max_pending: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let xml = heavy_spec_xml();

    // Occupy the single worker: the busy request's head is written
    // before anything else connects, so the worker deterministically
    // picks it (the oldest queued connection), and its body is held
    // back until the shed is asserted, so the worker stays blocked on
    // the read however fast the synthesis would be. The server waits
    // up to its 10 s IO timeout for the body.
    let mut busy = TcpStream::connect(addr).expect("connect busy");
    busy.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let head = format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        xml.len()
    );
    busy.write_all(head.as_bytes()).expect("write busy head");
    std::thread::sleep(Duration::from_millis(300));

    // Fills the accept queue (the worker is busy, nobody pops).
    let queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));

    // Over the bound: shed on accept, before any request bytes.
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (status, head, body, close) = read_one_response(&mut shed);
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(close, "shed connections are closed");
    assert!(body.contains("accept queue full"), "{body}");

    busy.write_all(xml.as_bytes()).expect("write busy body");
    drop(queued); // the worker will see EOF and move on
    let mut raw = String::new();
    busy.read_to_string(&mut raw).expect("busy response");
    assert!(raw.starts_with("HTTP/1.1 200"), "busy response: {raw}");

    // The worker may still be draining the queued connection, so a
    // stats request can itself be shed for a moment — retry briefly.
    let stats = (0..100)
        .find_map(|_| {
            let (status, body) = request(addr, "GET", "/v1/stats", "");
            if status == 200 {
                return Some(body);
            }
            std::thread::sleep(Duration::from_millis(100));
            None
        })
        .expect("stats eventually served after the backlog drains");
    let shed_count: u64 = field(&stats, "shed_connections").parse().expect("number");
    assert!(shed_count >= 1, "{stats}");
    assert_eq!(field(&stats, "max_pending"), "1", "{stats}");

    server.stop();
}

#[test]
fn artifact_endpoints_serve_from_the_cache() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    let artifact_post = |target: &str, body: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        keep_alive_request(&mut stream, "POST", target, body)
    };
    let artifact_get = |target: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        keep_alive_request(&mut stream, "GET", target, "")
    };

    // POST /v1/table: the artifact bytes verbatim, provenance in headers.
    let (status, head, table_miss, _) = artifact_post("/v1/table", &xml);
    assert_eq!(status, 200);
    assert!(
        table_miss.starts_with("struct ScheduleItem scheduleTable"),
        "{table_miss}"
    );
    assert!(
        head.contains("Content-Type: text/x-csrc; charset=utf-8"),
        "{head}"
    );
    assert!(head.contains("X-Ezrt-Cache: miss"), "{head}");
    assert!(head.contains("X-Ezrt-Rendered: miss"), "{head}");
    let digest = head
        .lines()
        .find_map(|line| line.strip_prefix("X-Ezrt-Digest: "))
        .expect("digest header")
        .trim()
        .to_owned();
    assert_eq!(digest.len(), 48, "{digest}");

    // Re-POST: served from cache, byte-identical body, and the bytes
    // themselves come out of the rendered tier this time.
    let (_, head, table_hit, _) = artifact_post("/v1/table", &xml);
    assert!(head.contains("X-Ezrt-Cache: hit"), "{head}");
    assert!(head.contains("X-Ezrt-Rendered: hit"), "{head}");
    assert_eq!(table_miss, table_hit);

    // Codegen with a target; gantt. Content types are per kind.
    let (status, head, code, _) = artifact_post("/v1/codegen?target=i8051", &xml);
    assert_eq!(status, 200);
    assert!(code.contains("__interrupt(1)"), "{code}");
    assert!(head.contains("X-Ezrt-Artifact: codegen:i8051"), "{head}");
    assert!(
        head.contains("Content-Type: text/x-csrc; charset=utf-8"),
        "{head}"
    );
    let (status, head, gantt, _) = artifact_post("/v1/gantt", &xml);
    assert_eq!(status, 200);
    assert!(gantt.contains('#'), "{gantt}");
    assert!(
        head.contains("Content-Type: text/plain; charset=utf-8"),
        "{head}"
    );

    // GET /v1/artifact/<digest>/<kind>: straight from the cache.
    let (status, head, report, _) = artifact_get(&format!("/v1/artifact/{digest}/report-json"));
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"), "{head}");
    assert!(head.contains("X-Ezrt-Cache: hit"), "{head}");
    assert!(report.contains("\"feasible\": true"), "{report}");
    assert!(report.contains(&digest), "{report}");
    let (status, head, pnml, _) = artifact_get(&format!("/v1/artifact/{digest}/pnml"));
    assert_eq!(status, 200);
    assert!(pnml.contains("<pnml"), "{pnml}");
    assert!(head.contains("Content-Type: application/xml"), "{head}");
    let (status, _, same_table, _) = artifact_get(&format!("/v1/artifact/{digest}/table"));
    assert_eq!(status, 200);
    assert_eq!(same_table, table_miss, "GET and POST table bodies agree");

    // Unknown digest: 404, never a synthesis.
    let unknown = "0".repeat(48);
    let (status, _, body, _) = artifact_get(&format!("/v1/artifact/{unknown}/table"));
    assert_eq!(status, 404, "{body}");
    // Bad digest / bad kind / bad method: 400/400/405.
    let (status, _, _, _) = artifact_get("/v1/artifact/nothex/table");
    assert_eq!(status, 400);
    let (status, _, body, _) = artifact_get(&format!("/v1/artifact/{digest}/sbom"));
    assert_eq!(status, 400);
    assert!(body.contains("unknown artifact kind"), "{body}");
    let (status, _, _, _) = artifact_post(&format!("/v1/artifact/{digest}/table"), "");
    assert_eq!(status, 405);
    let (status, _, body, _) = artifact_post("/v1/codegen?target=z80", &xml);
    assert_eq!(status, 400);
    assert!(body.contains("unknown target"), "{body}");

    // An infeasible spec renders no schedule-dependent artifact: 409.
    let overload = ezrt_dsl::to_xml(
        &ezrt_spec::SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap(),
    );
    let (status, _, body, _) = artifact_post("/v1/table", &overload);
    assert_eq!(status, 409);
    assert!(body.contains("no feasible schedule"), "{body}");

    server.stop();
}

/// Extracts one header's value from a raw response head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{name}: ");
    head.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .map(str::trim)
}

/// Drops the per-request timing headers (their values vary run to run)
/// so header blocks can be compared for structural identity.
fn strip_timing_headers(head: &str) -> String {
    head.lines()
        .filter(|line| {
            !line.starts_with("X-Ezrt-Elapsed-Micros:") && !line.starts_with("Server-Timing:")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sends one request with extra headers over an open keep-alive
/// connection and reads one `Content-Length`-delimited response.
fn request_with_headers(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, String, String, bool) {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_one_response(stream)
}

/// Sends one `Connection: close` request and reads to EOF, returning
/// `(status, raw head, body)`. This is the only safe way to read a
/// `HEAD` response — its `Content-Length` describes the suppressed
/// body, so reading by length would hang.
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
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    (status, head.to_owned(), body.to_owned())
}

#[test]
fn conditional_requests_answer_304_with_the_same_etag() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");

    // Prime: the full response carries the strong validator.
    let (status, head, table, _) = keep_alive_request(&mut stream, "POST", "/v1/table", &xml);
    assert_eq!(status, 200);
    let digest = header(&head, "X-Ezrt-Digest").expect("digest").to_owned();
    let etag = header(&head, "ETag").expect("etag").to_owned();
    assert_eq!(etag, format!("\"{digest}:table\""));

    // If-None-Match hit on the GET route: header-only 304, same tag.
    let target = format!("/v1/artifact/{digest}/table");
    let (status, head, body, _) =
        request_with_headers(&mut stream, "GET", &target, &[("If-None-Match", &etag)], "");
    assert_eq!(status, 304, "{head}");
    assert!(body.is_empty(), "304 carries no body");
    assert_eq!(header(&head, "ETag"), Some(etag.as_str()));
    assert_eq!(header(&head, "Content-Length"), Some("0"));
    assert_eq!(header(&head, "X-Ezrt-Artifact"), Some("table"));
    // A 304 still declares the representation's media type.
    assert_eq!(
        header(&head, "Content-Type"),
        Some("text/x-csrc; charset=utf-8"),
        "{head}"
    );

    // A tag list and `*` both match; a stale tag does not.
    let list = format!("\"nope\", {etag}");
    let (status, _, _, _) = request_with_headers(
        &mut stream,
        "GET",
        &target,
        &[("If-None-Match", list.as_str())],
        "",
    );
    assert_eq!(status, 304);
    let (status, _, _, _) =
        request_with_headers(&mut stream, "GET", &target, &[("If-None-Match", "*")], "");
    assert_eq!(status, 304);
    let (status, head, body, _) = request_with_headers(
        &mut stream,
        "GET",
        &target,
        &[("If-None-Match", "\"stale:table\"")],
        "",
    );
    assert_eq!(status, 200, "mismatched tag gets the full body");
    assert_eq!(body, table);
    assert_eq!(header(&head, "ETag"), Some(etag.as_str()));
    assert_eq!(header(&head, "X-Ezrt-Rendered"), Some("hit"));

    // The POST artifact routes are conditional too.
    let (status, _, body, _) = request_with_headers(
        &mut stream,
        "POST",
        "/v1/table",
        &[("If-None-Match", &etag)],
        &xml,
    );
    assert_eq!(status, 304);
    assert!(body.is_empty());

    // ... and so is the schedule report, under its own kind tag.
    let report_etag = format!("\"{digest}:report-json\"");
    let (status, head, body, _) = request_with_headers(
        &mut stream,
        "POST",
        "/v1/schedule",
        &[("If-None-Match", report_etag.as_str())],
        &xml,
    );
    assert_eq!(status, 304);
    assert!(body.is_empty());
    assert_eq!(header(&head, "ETag"), Some(report_etag.as_str()));
    assert_eq!(header(&head, "Content-Type"), Some("application/json"));

    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    let not_modified: u64 = field(&stats, "not_modified").parse().expect("number");
    assert_eq!(not_modified, 5, "{stats}");

    server.stop();
}

#[test]
fn head_requests_mirror_the_full_response_headers_with_zero_body() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    // Prime the cache (outcome + rendered bytes) and learn the digest.
    let (status, full) = request(addr, "POST", "/v1/table", &xml);
    assert_eq!(status, 200);
    let (_, stats_body) = request(addr, "POST", "/v1/schedule", &xml);
    let digest = field(&stats_body, "spec_digest")
        .trim_matches('"')
        .to_owned();

    // GET vs HEAD on the artifact route: byte-identical heads (status
    // line, Content-Length of the would-be body, ETag, provenance), no
    // body on the HEAD.
    let target = format!("/v1/artifact/{digest}/table");
    let (status, get_head, get_body) = close_request(addr, "GET", &target, &[], "");
    assert_eq!(status, 200);
    assert_eq!(get_body, full);
    let (status, head_head, head_body) = close_request(addr, "HEAD", &target, &[], "");
    assert_eq!(status, 200);
    assert!(head_body.is_empty(), "HEAD carries no body");
    assert_eq!(
        strip_timing_headers(&get_head),
        strip_timing_headers(&head_head),
        "HEAD headers mirror GET exactly (modulo per-request timing)"
    );
    assert_eq!(
        header(&head_head, "Content-Length"),
        Some(full.len().to_string().as_str()),
        "HEAD announces the suppressed body's length"
    );

    // HEAD parity holds on the POST artifact routes too (spec body
    // attached, headers of the would-be POST response, no body).
    let (status, post_head, post_body) = close_request(addr, "POST", "/v1/table", &[], &xml);
    assert_eq!(status, 200);
    assert_eq!(post_body, full);
    let (status, head_head, head_body) = close_request(addr, "HEAD", "/v1/table", &[], &xml);
    assert_eq!(status, 200);
    assert!(head_body.is_empty());
    assert_eq!(
        strip_timing_headers(&post_head),
        strip_timing_headers(&head_head),
        "HEAD mirrors the POST headers (modulo per-request timing)"
    );

    // Conditional HEAD: the 304 short-circuit applies as usual.
    let etag = header(&post_head, "ETag").expect("etag").to_owned();
    let (status, cond_head, cond_body) =
        close_request(addr, "HEAD", &target, &[("If-None-Match", &etag)], "");
    assert_eq!(status, 304);
    assert!(cond_body.is_empty());
    assert_eq!(header(&cond_head, "ETag"), Some(etag.as_str()));

    // HEAD must never cause effects: the shutdown route refuses it and
    // the server keeps serving.
    let (status, _, _) = close_request(addr, "HEAD", "/v1/shutdown", &[], "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200, "the server survived a HEAD /v1/shutdown");

    server.stop();
}

#[test]
fn pipelined_bursts_are_answered_in_order_on_one_connection() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    // Prime the digest so the artifact GETs below are pure cache work.
    let (status, first) = request(addr, "POST", "/v1/schedule", &xml);
    assert_eq!(status, 200);
    let digest = field(&first, "spec_digest").trim_matches('"').to_owned();

    // One write carrying six requests: five GETs and a POST with a
    // body. The server must answer all six, in order, on the one
    // connection — the per-request kinds make any reordering visible.
    let kinds = ["report-json", "table", "gantt", "pnml", "table"];
    let mut burst = Vec::new();
    for kind in kinds {
        burst.extend_from_slice(
            format!(
                "GET /v1/artifact/{digest}/{kind} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n"
            )
            .as_bytes(),
        );
    }
    burst.extend_from_slice(
        format!(
            "POST /v1/schedule HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            xml.len()
        )
        .as_bytes(),
    );
    burst.extend_from_slice(xml.as_bytes());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(&burst).expect("write burst");

    let mut bodies = Vec::new();
    for kind in kinds {
        let (status, head, body, close) = read_one_response(&mut stream);
        assert_eq!(status, 200, "{head}");
        assert_eq!(
            header(&head, "X-Ezrt-Artifact"),
            Some(kind),
            "responses must arrive in request order"
        );
        assert!(!close);
        bodies.push(body);
    }
    assert!(bodies[0].contains("\"feasible\": true"), "{}", bodies[0]);
    assert!(
        bodies[1].starts_with("struct ScheduleItem"),
        "{}",
        bodies[1]
    );
    assert_eq!(bodies[1], bodies[4], "same kind, same bytes");
    let (status, _, schedule_body, close) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(field(&schedule_body, "cache"), "\"hit\"");
    assert!(!close);

    // The connection is still a normal keep-alive connection.
    let (status, _, body, close) = keep_alive_request(&mut stream, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    assert!(!close);

    // All 7 pipelined requests rode one connection.
    let (_, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(field(&stats, "connections"), "3", "{stats}");
    assert_eq!(field(&stats, "requests"), "9", "{stats}");

    server.stop();
}

#[test]
fn a_pipelined_burst_ending_in_close_gets_every_response() {
    let server = server(ServerConfig::default());
    let addr = server.addr();

    // Three healthz probes in one segment, the last one closing.
    let probe = "GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n";
    let mut burst = probe.repeat(2).into_bytes();
    burst.extend_from_slice(
        b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(&burst).expect("write burst");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to EOF");
    assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 3, "{raw}");
    assert_eq!(raw.matches("Connection: keep-alive").count(), 2, "{raw}");
    assert_eq!(raw.matches("Connection: close").count(), 1, "{raw}");

    server.stop();
}

#[test]
fn every_error_path_carries_a_json_content_type() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let infeasible = ezrt_dsl::to_xml(
        &ezrt_spec::SpecBuilder::new("overloaded")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .expect("overloaded spec"),
    );

    // One representative per error family: unknown route, malformed
    // digest, unknown digest, unparsable spec, malformed warm hint,
    // and the 409 of a schedule-shaped artifact on an infeasible spec.
    let cases: &[(&str, &str, &str, u16)] = &[
        ("GET", "/v1/nope", "", 404),
        ("GET", "/v1/artifact/xyz/table", "", 400),
        (
            "GET",
            "/v1/artifact/000000000000000000000000000000000000000000000000/table",
            "",
            404,
        ),
        ("POST", "/v1/schedule", "<not-a-spec/>", 400),
        ("POST", "/v1/schedule?warm=xyz", &tiny_spec_xml("w"), 400),
        ("POST", "/v1/table", &infeasible, 409),
    ];
    for (method, target, body, expected) in cases {
        let (status, head, body) = close_request(addr, method, target, &[], body);
        assert_eq!(status, *expected, "{method} {target}: {head}");
        assert_eq!(
            header(&head, "Content-Type"),
            Some("application/json"),
            "{method} {target}: {head}"
        );
        assert!(
            body.starts_with('{') && body.contains("\"error\""),
            "{method} {target}: {body}"
        );
    }

    server.stop();
}

#[test]
fn chunked_requests_are_refused_with_a_readable_501() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    // The client ships the whole request — headers announcing chunked
    // plus a body the server will never parse. The 501 must survive the
    // unread bytes (lingering close), not be destroyed by an RST.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let head = format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nTransfer-Encoding: chunked\r\n\r\n",
        xml.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(xml.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("the 501 must survive the unread body");
    assert!(raw.starts_with("HTTP/1.1 501"), "{raw}");
    assert!(raw.contains("Transfer-Encoding"), "{raw}");

    server.stop();
}

#[test]
fn sweep_rows_are_deterministic_and_deduplicated() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();
    // The grid separators (`:`, `;`, `,`) travel in the query string
    // unescaped — the parser splits parameters on `&` only.
    let target = "/v1/sweep?grid=periods:100,150;deadlines:75,100";

    let (status, head, first) = close_request(addr, "POST", target, &[], &xml);
    assert_eq!(status, 200, "{head}");
    assert_eq!(header(&head, "Content-Type"), Some("application/x-ndjson"));
    assert_eq!(first.lines().count(), 4, "{first}");
    assert_eq!(header(&head, "X-Ezrt-Sweep-Points"), Some("4"));
    assert_eq!(header(&head, "X-Ezrt-Sweep-Unique"), Some("4"));
    assert_eq!(header(&head, "X-Ezrt-Sweep-Feasible"), Some("4"));
    // The identity point (100/100, no jitter) reproduces the base spec
    // bit-for-bit, so its row digest is the advertised base digest.
    let base = header(&head, "X-Ezrt-Digest").expect("base digest");
    let identity = first
        .lines()
        .find(|line| line.contains("\"point\": \"periods=100 deadlines=100 jitter=0\""))
        .expect("identity row");
    assert!(identity.contains(base), "{identity}");

    // Byte-identical across a repeat request (every point now a cache
    // hit) and across a wider fan-out: rows never encode cache luck or
    // thread scheduling.
    let (status, _, second) = close_request(addr, "POST", target, &[], &xml);
    assert_eq!(status, 200);
    assert_eq!(first, second, "repeat sweep must be byte-identical");
    let wide = format!("{target}&jobs=4");
    let (status, _, third) = close_request(addr, "POST", &wide, &[], &xml);
    assert_eq!(status, 200);
    assert_eq!(first, third, "fan-out width must not change the rows");

    // The second identical sweep resolved every point from the digest
    // cache: exactly the 4 unique grid points were ever synthesized.
    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "sweep_requests"), "3");
    assert_eq!(field(&body, "sweep_points"), "12");
    assert_eq!(field(&body, "cache_misses"), "4");

    // HEAD parity: same headers, suppressed body.
    let (status, head_head, head_body) = close_request(addr, "HEAD", target, &[], &xml);
    assert_eq!(status, 200);
    assert!(head_body.is_empty(), "HEAD carries no body");
    assert_eq!(header(&head_head, "X-Ezrt-Sweep-Points"), Some("4"));

    server.stop();
}

#[test]
fn sweep_refuses_missing_malformed_and_oversized_grids() {
    let server = server(ServerConfig::default());
    let addr = server.addr();
    let xml = small_control_xml();

    let (status, _, body) = close_request(addr, "POST", "/v1/sweep", &[], &xml);
    assert_eq!(status, 400);
    assert!(body.contains("grid"), "{body}");

    let (status, _, body) = close_request(addr, "POST", "/v1/sweep?grid=phases:1,2", &[], &xml);
    assert_eq!(status, 400);
    assert!(body.contains("unknown axis"), "{body}");

    // 257 jitter values expand past MAX_SWEEP_POINTS; the request is
    // refused before any synthesis happens.
    let jitters: Vec<String> = (0..257u32).map(|j| j.to_string()).collect();
    let oversize = format!("/v1/sweep?grid=jitter:{}", jitters.join(","));
    let (status, _, body) = close_request(addr, "POST", &oversize, &[], &xml);
    assert_eq!(status, 400);
    assert!(body.contains("maximum"), "{body}");
    let (status, stats) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(field(&stats, "cache_misses"), "0");

    server.stop();
}
