//! Experiment X6 — service throughput: requests/second through the
//! `ezrt serve` HTTP front end over loopback, cached hits versus
//! uncached misses on the paper's mine-pump specification, plus the
//! artifact tiers: memory hit vs disk-tier hit vs full-synthesis miss
//! for `POST /v1/table`.
//!
//! The uncached arms post a fresh spec per request (the name is part of
//! the canonical digest, so renaming forces a miss and a full
//! synthesis); the cached arms re-post one resident spec. The client
//! keeps its connection alive (`Content-Length`-delimited reads,
//! transparent reconnect when the server recycles a connection at its
//! per-connection request cap), so the measured gap is lookup cost, not
//! connection setup.
//!
//! The X6c wire-speed arms use the `BufferedClient` (chunked reads,
//! pipelined batches, bytes-on-wire accounting) so the client's own
//! syscalls don't cap the measurement: full-body memoized-render hits,
//! conditional GETs answered with a header-only `304`, and pipelined
//! conditional bursts (50 requests per TCP segment).
//!
//! Trajectory (one dev machine, loopback): before the rendered-byte
//! tier the full-body `table` memory hit re-rendered per request at
//! ~3,500 req/s; with it the same POST arm reaches ~8,100 req/s and the
//! buffered-client GET arm ~75,000 req/s — within 2x of `report-json`
//! (~144,000 req/s) despite a 47x larger body (40.9 KB vs 0.9 KB).
//! Conditional GET serves ~141,000 req/s at 479 B/req (~40x the old
//! full-body hit, ~1% of its bytes), and pipelining 50 conditionals per
//! segment reaches ~414,000 req/s.

use criterion::{criterion_group, criterion_main, Criterion};
use ezrt_server::{Server, ServerConfig};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// A keep-alive HTTP client: one persistent connection, responses read
/// exactly by `Content-Length`, reconnecting when the server announces
/// `Connection: close` (its per-connection request cap).
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        // Without TCP_NODELAY, Nagle + delayed ACK stall each
        // request/response round-trip by tens of milliseconds.
        stream.set_nodelay(true).expect("nodelay");
        stream
    }

    fn request(&mut self, method: &str, target: &str, body: &str) -> String {
        // A held connection may have been idle-closed by the server
        // (KEEP_ALIVE_IDLE) between bench phases — retry once on a
        // fresh connection instead of panicking on the stale one.
        if let Some(mut stream) = self.stream.take() {
            if let Some((body, close)) = Self::try_request(&mut stream, method, target, body) {
                if !close {
                    self.stream = Some(stream);
                }
                return body;
            }
        }
        let mut stream = Self::connect(self.addr);
        let (body, close) =
            Self::try_request(&mut stream, method, target, body).expect("fresh-connection request");
        if !close {
            self.stream = Some(stream);
        }
        body
    }

    /// One request/response exchange; `None` on any transport failure
    /// (so the caller can reconnect), a panic on a non-200 status (a
    /// real server-side problem the bench must not paper over).
    fn try_request(
        stream: &mut TcpStream,
        method: &str,
        target: &str,
        body: &str,
    ) -> Option<(String, bool)> {
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body.as_bytes());
        stream.write_all(&message).ok()?;

        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => return None,
                Ok(_) => raw.push(byte[0]),
            }
        }
        let head = String::from_utf8(raw).expect("UTF-8 headers");
        assert!(
            head.starts_with("HTTP/1.1 200"),
            "unexpected response: {}",
            head.lines().next().unwrap_or_default()
        );
        let content_length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|value| value.trim().parse().ok())
            .expect("Content-Length header");
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).ok()?;
        Some((
            String::from_utf8(body).expect("UTF-8 body"),
            head.contains("Connection: close"),
        ))
    }
}

/// A buffered keep-alive client for the wire-speed arms: requests go
/// out in (optionally pipelined) batches, responses are parsed out of a
/// growing read buffer, and every byte in both directions is counted —
/// the byte-at-a-time `Client` above would bottleneck these arms on its
/// own syscalls, not on the server.
struct BufferedClient {
    addr: SocketAddr,
    stream: TcpStream,
    buffer: Vec<u8>,
    on_connection: usize,
    bytes_on_wire: u64,
}

impl BufferedClient {
    fn new(addr: SocketAddr) -> BufferedClient {
        BufferedClient {
            addr,
            stream: Client::connect(addr),
            buffer: Vec::new(),
            on_connection: 0,
            bytes_on_wire: 0,
        }
    }

    /// Reconnects when `upcoming` more requests would cross the
    /// server's per-connection request cap (it would otherwise close
    /// the connection mid-batch).
    fn reserve(&mut self, upcoming: usize) {
        if self.on_connection + upcoming > 100 {
            self.stream = Client::connect(self.addr);
            self.buffer.clear();
            self.on_connection = 0;
        }
    }

    /// Writes `count` copies of `request` in ONE segment and reads the
    /// `count` in-order responses, returning the last `(head, body)`.
    fn burst(&mut self, request: &[u8], count: usize) -> (String, String) {
        self.reserve(count);
        let mut segment = Vec::with_capacity(request.len() * count);
        for _ in 0..count {
            segment.extend_from_slice(request);
        }
        self.stream.write_all(&segment).expect("write burst");
        self.bytes_on_wire += segment.len() as u64;
        self.on_connection += count;
        let mut last = (String::new(), String::new());
        for _ in 0..count {
            last = self.read_response();
        }
        last
    }

    fn read_response(&mut self) -> (String, String) {
        let head_end = loop {
            match self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                Some(at) => break at,
                None => self.fill(),
            }
        };
        let head = String::from_utf8(self.buffer[..head_end].to_vec()).expect("UTF-8 head");
        let content_length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|value| value.trim().parse().ok())
            .expect("Content-Length header");
        let total = head_end + 4 + content_length;
        while self.buffer.len() < total {
            self.fill();
        }
        let body =
            String::from_utf8(self.buffer[head_end + 4..total].to_vec()).expect("UTF-8 body");
        self.buffer.drain(..total);
        (head, body)
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        let count = self.stream.read(&mut chunk).expect("read");
        assert!(count > 0, "server closed mid-response");
        self.buffer.extend_from_slice(&chunk[..count]);
        self.bytes_on_wire += count as u64;
    }
}

/// Encodes one HTTP/1.1 keep-alive request.
fn encode_request(method: &str, target: &str, extra: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(body.as_bytes());
    message
}

/// Pulls the `spec_digest` field out of a schedule report body.
fn spec_digest(body: &str) -> String {
    let marker = "\"spec_digest\": \"";
    let start = body.find(marker).expect("spec_digest field") + marker.len();
    let rest = &body[start..];
    rest[..rest.find('"').expect("closing quote")].to_owned()
}

/// A mine-pump document whose digest is unique per `index` (the spec
/// name participates in the canonical serialization).
fn mine_pump_variant(index: usize) -> String {
    let document = ezrt_dsl::to_xml(&ezrt_spec::corpus::mine_pump());
    document.replacen(
        "name=\"mine-pump\"",
        &format!("name=\"mine-pump-{index}\""),
        1,
    )
}

fn rps(requests: usize, wall: Duration) -> f64 {
    requests as f64 / wall.as_secs_f64()
}

fn report_cached_vs_uncached(addr: SocketAddr) {
    let mut client = Client::new(addr);
    let base = mine_pump_variant(usize::MAX);

    // Prime the cached arm (and warm the connection path).
    let primed = client.request("POST", "/v1/schedule", &base);
    assert!(primed.contains("\"cache\": \"miss\""), "{primed}");

    const UNCACHED_REQUESTS: usize = 20;
    let started = Instant::now();
    for index in 0..UNCACHED_REQUESTS {
        let response = client.request("POST", "/v1/schedule", &mine_pump_variant(index));
        debug_assert!(response.contains("\"cache\": \"miss\""));
    }
    let uncached_rps = rps(UNCACHED_REQUESTS, started.elapsed());

    const CACHED_REQUESTS: usize = 400;
    let started = Instant::now();
    for _ in 0..CACHED_REQUESTS {
        black_box(client.request("POST", "/v1/schedule", &base));
    }
    let cached_wall = started.elapsed();
    let cached_rps = rps(CACHED_REQUESTS, cached_wall);

    let speedup = cached_rps / uncached_rps.max(1e-9);
    eprintln!(
        "[X6] server throughput (mine pump, loopback, keep-alive): \
         uncached {uncached_rps:.0} req/s vs cached {cached_rps:.0} req/s \
         ({:.3} ms/hit) — {speedup:.1}x{}",
        cached_wall.as_secs_f64() * 1e3 / CACHED_REQUESTS as f64,
        if speedup >= 10.0 {
            ""
        } else {
            "  (below the 10x cache target!)"
        },
    );
}

/// The artifact tiers on `POST /v1/table`: a full-synthesis miss, a
/// memory hit, and a disk-tier hit (a server with zero memory capacity
/// over a warm `--cache-dir`, so every request decodes the persisted
/// outcome and re-renders — the restarted-server steady state).
fn report_artifact_tiers(cache_dir: &Path) {
    let base = mine_pump_variant(usize::MAX);

    let memory_server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 4096,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("memory-tier server starts");
    let mut client = Client::new(memory_server.addr());

    const MISS_REQUESTS: usize = 10;
    let started = Instant::now();
    for index in 0..MISS_REQUESTS {
        black_box(client.request("POST", "/v1/table", &mine_pump_variant(1_000 + index)));
    }
    let miss_rps = rps(MISS_REQUESTS, started.elapsed());

    // Prime, then measure pure memory hits.
    client.request("POST", "/v1/table", &base);
    const HIT_REQUESTS: usize = 300;
    let started = Instant::now();
    for _ in 0..HIT_REQUESTS {
        black_box(client.request("POST", "/v1/table", &base));
    }
    let memory_rps = rps(HIT_REQUESTS, started.elapsed());
    drop(client);
    memory_server.stop();

    // Zero memory capacity over the same (now warm) directory: every
    // request is a disk revival, never a synthesis.
    let disk_server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("disk-tier server starts");
    let mut client = Client::new(disk_server.addr());
    const DISK_REQUESTS: usize = 100;
    let started = Instant::now();
    for _ in 0..DISK_REQUESTS {
        black_box(client.request("POST", "/v1/table", &base));
    }
    let disk_rps = rps(DISK_REQUESTS, started.elapsed());
    let stats = client.request("GET", "/v1/stats", "");
    assert!(
        stats.contains("\"cache_misses\": 0"),
        "disk-tier arm must never synthesize: {stats}"
    );
    drop(client);
    disk_server.stop();

    eprintln!(
        "[X6b] artifact tiers (POST /v1/table, mine pump): \
         miss {miss_rps:.0} req/s vs disk hit {disk_rps:.0} req/s vs \
         memory hit {memory_rps:.0} req/s — disk {:.0}x over miss, memory {:.1}x over disk",
        disk_rps / miss_rps.max(1e-9),
        memory_rps / disk_rps.max(1e-9),
    );
}

/// X6c — wire speed on a warm server: full-body memoized-render hits,
/// conditional GETs answered 304, and pipelined conditional bursts,
/// with bytes on the wire (both directions) per request for each arm.
fn report_wire_speed(addr: SocketAddr) {
    let base = mine_pump_variant(usize::MAX);
    let mut client = BufferedClient::new(addr);

    let schedule = encode_request("POST", "/v1/schedule", &[], &base);
    let (_, body) = client.burst(&schedule, 1);
    let digest = spec_digest(&body);
    let table_target = format!("/v1/artifact/{digest}/table");
    let report_target = format!("/v1/artifact/{digest}/report-json");
    let table_get = encode_request("GET", &table_target, &[], "");
    let report_get = encode_request("GET", &report_target, &[], "");
    let etag = format!("\"{digest}:table\"");
    let conditional = encode_request("GET", &table_target, &[("If-None-Match", &etag)], "");

    // One arm: `total` requests in batches of `batch` per segment,
    // returning (req/s, average bytes on the wire per request).
    let mut arm = |request: &[u8], total: usize, batch: usize, expect: &str| {
        client.burst(request, 1); // warm the path outside the clock
        let before = client.bytes_on_wire;
        let started = Instant::now();
        let mut sent = 0;
        while sent < total {
            let count = batch.min(total - sent);
            let (head, _) = client.burst(request, count);
            assert!(head.starts_with(expect), "{head}");
            sent += count;
        }
        let wall = started.elapsed();
        (
            rps(total, wall),
            (client.bytes_on_wire - before) as f64 / total as f64,
        )
    };

    let (table_rps, table_bytes) = arm(&table_get, 1_000, 1, "HTTP/1.1 200");
    let (report_rps, report_bytes) = arm(&report_get, 1_000, 1, "HTTP/1.1 200");
    let (cond_rps, cond_bytes) = arm(&conditional, 2_000, 1, "HTTP/1.1 304");
    let (piped_rps, piped_bytes) = arm(&conditional, 10_000, 50, "HTTP/1.1 304");

    eprintln!(
        "[X6c] wire speed (GET /v1/artifact, mine pump, buffered client): \
         table full-body {table_rps:.0} req/s ({table_bytes:.0} B/req) vs \
         report-json full-body {report_rps:.0} req/s ({report_bytes:.0} B/req) — \
         table/report ratio {:.2}{}",
        report_rps / table_rps.max(1e-9),
        if report_rps / table_rps.max(1e-9) <= 2.0 {
            ""
        } else {
            "  (memoized renders should hold this within 2x!)"
        },
    );
    eprintln!(
        "[X6c] conditional GET 304: {cond_rps:.0} req/s ({cond_bytes:.0} B/req) — \
         {:.1}x over full-body; pipelined x50: {piped_rps:.0} req/s \
         ({piped_bytes:.0} B/req) — {:.1}x over full-body, \
         {:.2}x the bytes",
        cond_rps / table_rps.max(1e-9),
        piped_rps / table_rps.max(1e-9),
        piped_bytes / table_bytes.max(1e-9),
    );
}

fn bench_server_throughput(c: &mut Criterion) {
    let cache_dir = std::env::temp_dir().join(format!("ezrt_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    report_cached_vs_uncached(addr);
    report_artifact_tiers(&cache_dir);
    report_wire_speed(addr);

    let mut group = c.benchmark_group("server_throughput");
    group.sample_size(20);
    let base = mine_pump_variant(usize::MAX); // resident since the report
    let client = std::cell::RefCell::new(Client::new(addr));
    let digest = spec_digest(&client.borrow_mut().request("POST", "/v1/schedule", &base));
    let conditional = encode_request(
        "GET",
        &format!("/v1/artifact/{digest}/table"),
        &[("If-None-Match", &format!("\"{digest}:table\""))],
        "",
    );
    let wire = std::cell::RefCell::new(BufferedClient::new(addr));
    group.bench_function("artifact_conditional_304", |b| {
        b.iter(|| black_box(wire.borrow_mut().burst(&conditional, 1)))
    });
    group.bench_function("artifact_conditional_304_pipelined_x50", |b| {
        b.iter(|| black_box(wire.borrow_mut().burst(&conditional, 50)))
    });
    group.bench_function("schedule_cached_hit", |b| {
        b.iter(|| black_box(client.borrow_mut().request("POST", "/v1/schedule", &base)))
    });
    group.bench_function("table_cached_hit", |b| {
        b.iter(|| black_box(client.borrow_mut().request("POST", "/v1/table", &base)))
    });
    let fresh_index = std::sync::atomic::AtomicUsize::new(1_000_000);
    group.bench_function("schedule_uncached_miss", |b| {
        b.iter(|| {
            let index = fresh_index.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            black_box(client.borrow_mut().request(
                "POST",
                "/v1/schedule",
                &mine_pump_variant(index),
            ))
        })
    });
    group.finish();
    drop(client);
    drop(wire);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
