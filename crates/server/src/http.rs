//! The std-only HTTP/1.1 front end: `std::net::TcpListener`, a fixed
//! accept/worker pool, hand-rolled request parsing — no new
//! dependencies, no `unsafe`.
//!
//! Endpoints:
//!
//! | method | path           | behaviour                                        |
//! |--------|----------------|--------------------------------------------------|
//! | POST   | `/v1/schedule` | spec XML body → the `ezrt schedule --json` object plus `spec_digest` and `cache: "hit"\|"disk"\|"miss"`; `?por=off\|stubborn` overrides the partial-order reduction level (and, being result-relevant, keys its own cache entry); `?warm=<digest>` seeds a miss's search from that cached schedule (without the hint, a miss consults the structural ancestor index automatically); `?jobs=N` is validated (400 outside `1..=64`) and changes nothing |
//! | POST   | `/v1/check`    | spec XML body → parse/validation verdict and spec summary |
//! | POST   | `/v1/table`    | spec XML body → the Fig. 8 schedule table (C array), byte-identical to `ezrt table` |
//! | POST   | `/v1/codegen`  | spec XML body → the generated C translation unit; `?target=<t>` picks the target (default `posix_sim`) |
//! | POST   | `/v1/gantt`    | spec XML body → the ASCII timeline over the default window |
//! | GET    | `/v1/artifact/<digest>/<kind>` | any artifact of an already-synthesized digest, straight from the rendered-byte, memory or disk cache (404 when absent; never synthesizes) |
//! | POST   | `/v1/sweep`    | spec XML body + `?grid=` → one NDJSON row per grid point, byte-identical to `ezrt sweep`; `?jobs=N` widens the point fan-out |
//! | GET    | `/v1/healthz`  | liveness probe                                   |
//! | GET    | `/v1/stats`    | request, connection and cache counters (all three cache tiers) |
//! | GET    | `/v1/metrics`  | Prometheus text exposition of every counter, gauge and histogram (server registry + process-wide engine registry) |
//! | POST   | `/v1/shutdown` | graceful stop: drain workers, join threads       |
//!
//! `HEAD` is accepted wherever `GET` is, and additionally on the POST
//! spec routes (`/v1/schedule`, `/v1/check`, `/v1/table`,
//! `/v1/codegen`, `/v1/gantt`, with the spec as the request body): the
//! response carries exactly the headers the full request would
//! (including `Content-Length` of the would-be body) and no body.
//!
//! **Conditional requests.** Artifacts are immutable per digest (every
//! body is a pure render of a digest-keyed outcome), so artifact and
//! report responses carry a strong validator `ETag: "<digest>:<kind>"`.
//! A request whose `If-None-Match` lists that tag (or `*`) is answered
//! `304 Not Modified` — same `ETag`, `Content-Length: 0`, no body — so
//! a repeat client pays ~100 header bytes instead of the artifact.
//! Artifact bodies are served from the rendered-byte tier
//! ([`RenderedCache`](crate::rendered::RenderedCache)): a hot `(digest,
//! kind)` hit is an `Arc` clone of the cached bytes, not a re-render;
//! `X-Ezrt-Rendered: hit|miss` reports which happened. Cache provenance
//! and the digest ride in `X-Ezrt-Cache` / `X-Ezrt-Digest` headers as
//! before.
//!
//! **Connection handling.** One accept thread pushes connections onto a
//! condvar-guarded queue drained by `workers` threads. HTTP/1.1
//! connections are **kept alive** (idle timeout [`KEEP_ALIVE_IDLE`],
//! at most [`MAX_CONNECTION_REQUESTS`] requests per connection) and
//! **pipelined**: each socket read drains into a per-connection buffer,
//! every complete buffered request is parsed and routed without another
//! read, and the responses queue in an output buffer written — in
//! request order — before the next blocking read. A client that writes
//! N requests in one TCP segment gets N in-order responses for (ideally)
//! one read and one write syscall. `Connection: close` and HTTP/1.0 get
//! one request per connection as before. When the pending-connection
//! queue exceeds [`ServerConfig::max_pending`], new connections are
//! **shed** with `503 Retry-After` instead of queueing unboundedly.
//! Every search is sequential and runs on the worker thread that
//! serves its request; `?jobs=N` only widens a `/v1/sweep` point
//! fan-out (the engine's [`Parallelism`] type).
//!
//! **Observability.** Every routed response carries a `Server-Timing`
//! header with per-phase durations (parse, digest, cache, warm, search,
//! render — whichever ran) plus the total; artifact-bearing responses
//! add `X-Ezrt-Elapsed-Micros`. The same phases feed per-phase
//! histograms exposed at `/v1/metrics`, and an optional NDJSON access
//! log ([`ServerConfig::log_file`]) records one line per routed
//! request.

use crate::cache::{
    compute_outcome, compute_outcome_incremental, Lookup, ResultCache, SynthesisOutcome,
};
use crate::digest::{project_digest, structure_digest, SpecDigest};
use crate::disk::DiskTier;
use crate::report::{self, JsonFields};
use crate::sweep::{run_sweep, SweepOptions};
use ezrt_artifacts::{ArtifactKind, RenderError};
use ezrt_core::Project;
use ezrt_obs::{Counter, Gauge, Histogram, Registry};
use ezrt_scheduler::{Parallelism, PorLevel, SchedulerConfig, SearchCounter, SearchStats};
use ezrt_spec::sweep::SweepGrid;
use std::collections::VecDeque;
use std::io::{LineWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on a request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (spec XML documents are small).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Per-connection socket timeout: a stalled client cannot pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How much a single socket read may pull into the connection buffer.
const READ_CHUNK: usize = 16 * 1024;
/// How long a kept-alive connection may sit idle between requests
/// before the worker closes it and moves on.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
/// Per-connection request cap: after this many requests the server
/// answers with `Connection: close` and recycles the worker, so one
/// immortal client cannot monopolize a pool slot forever.
pub const MAX_CONNECTION_REQUESTS: u64 = 100;
/// Upper bound on the client-supplied `?jobs=N`: a sweep may not fan
/// out over more threads than this, no matter what it asks for — an
/// unbounded value would let one POST spawn arbitrarily many threads.
const MAX_REQUEST_JOBS: usize = 64;

/// Configuration of [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The base scheduler configuration; its `parallelism` is the
    /// default `/v1/sweep` fan-out width (the CLI's `--jobs`),
    /// overridable per request with `?jobs=N`. Searches ignore it.
    pub scheduler: SchedulerConfig,
    /// Connection worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Result-cache bound in completed entries; 0 disables memory
    /// storing (singleflight coalescing still applies).
    pub cache_capacity: usize,
    /// Cache shard count; 0 picks the default (8).
    pub cache_shards: usize,
    /// Disk cache directory (`--cache-dir`): when set, synthesis
    /// results persist here and a restarted server warm-starts from it.
    pub cache_dir: Option<PathBuf>,
    /// Disk cache byte budget (`--cache-max-bytes`): when set alongside
    /// `cache_dir`, an mtime-LRU sweep keeps the directory under this
    /// many bytes (enforced at startup and after every write).
    pub cache_max_bytes: Option<u64>,
    /// Accept-queue bound (`--max-pending`): connections beyond this
    /// many pending are shed with `503 Retry-After`. 0 means unbounded.
    pub max_pending: usize,
    /// NDJSON access-log path (`--log-file`): when set, every routed
    /// request appends one line-buffered JSON object (route, status,
    /// digest, cache tier, per-phase micros).
    pub log_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            scheduler: SchedulerConfig::default(),
            workers: 4,
            cache_capacity: 1024,
            cache_shards: 0,
            cache_dir: None,
            cache_max_bytes: None,
            max_pending: 128,
            log_file: None,
        }
    }
}

/// How many connections awaiting their 503 may queue for the shedder
/// thread before the server stops writing 503s and just drops new
/// arrivals — the bounded last resort when even shedding is saturated.
const MAX_SHED_BACKLOG: usize = 128;

/// Shared server state: the cache, the connection queue, the counters.
#[derive(Debug)]
struct Shared {
    addr: SocketAddr,
    running: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_ready: Condvar,
    /// Connections awaiting a `503 Retry-After`, handed off by the
    /// accept thread so the (blocking) write + lingering close never
    /// runs on it.
    shed_queue: Mutex<VecDeque<TcpStream>>,
    shed_ready: Condvar,
    cache: ResultCache,
    scheduler: SchedulerConfig,
    workers: usize,
    max_pending: usize,
    started: Instant,
    /// The per-server metrics registry `GET /v1/metrics` renders
    /// (merged with the process-wide engine registry at scrape time).
    registry: Registry,
    /// Per-request latency/size histograms, registered in `registry`.
    metrics: HttpMetrics,
    /// Scrape-time gauges (entry counts, resident bytes), set on each
    /// `/v1/metrics` render.
    gauges: ServerGauges,
    /// The NDJSON access log (`--log-file`), line-buffered.
    log: Option<Mutex<LineWriter<std::fs::File>>>,
    connections: Counter,
    shed_connections: Counter,
    requests: Counter,
    schedule_requests: Counter,
    artifact_requests: Counter,
    /// `POST /v1/sweep` requests (any status).
    sweep_requests: Counter,
    /// Grid points expanded by completed sweeps (rows rendered,
    /// including invalid points).
    sweep_points: Counter,
    http_errors: Counter,
    /// `304 Not Modified` responses (conditional hits).
    not_modified: Counter,
    /// Per-miss search counters: one cell per [`SearchStats::COUNTERS`]
    /// entry with a server family, in table order, summed over the
    /// searches schedule misses ran.
    search_counters: Vec<(&'static SearchCounter, Counter)>,
}

/// The HTTP layer's latency and size histograms (all microseconds
/// except `response_bytes`). Created through the registry, so they are
/// registered the moment the server starts.
#[derive(Debug)]
struct HttpMetrics {
    /// Total routed-request duration (parse through enqueue).
    request_micros: Histogram,
    /// Socket write+flush duration per non-pipelined response batch.
    write_micros: Histogram,
    /// Response body sizes.
    response_bytes: Histogram,
    /// Per-phase durations, same names as the `Server-Timing` header.
    phase_parse: Histogram,
    phase_digest: Histogram,
    phase_cache: Histogram,
    phase_warm: Histogram,
    phase_search: Histogram,
    phase_render: Histogram,
}

impl HttpMetrics {
    fn register(registry: &Registry) -> HttpMetrics {
        HttpMetrics {
            request_micros: registry.histogram(
                "ezrt_http_request_micros",
                "Routed request duration in microseconds (parse through response enqueue).",
            ),
            write_micros: registry.histogram(
                "ezrt_http_write_micros",
                "Socket write+flush duration in microseconds per response batch.",
            ),
            response_bytes: registry
                .histogram("ezrt_http_response_bytes", "Response body sizes in bytes."),
            phase_parse: registry.histogram(
                "ezrt_phase_parse_micros",
                "Spec parse phase duration in microseconds.",
            ),
            phase_digest: registry.histogram(
                "ezrt_phase_digest_micros",
                "Digest computation phase duration in microseconds.",
            ),
            phase_cache: registry.histogram(
                "ezrt_phase_cache_micros",
                "Cache lookup/coordination phase duration in microseconds.",
            ),
            phase_warm: registry.histogram(
                "ezrt_phase_warm_micros",
                "Warm-start ancestor resolution phase duration in microseconds.",
            ),
            phase_search: registry.histogram(
                "ezrt_phase_search_micros",
                "Synthesis/search phase duration in microseconds.",
            ),
            phase_render: registry.histogram(
                "ezrt_phase_render_micros",
                "Artifact render phase duration in microseconds.",
            ),
        }
    }

    fn phase(&self, name: &str) -> Option<&Histogram> {
        match name {
            "parse" => Some(&self.phase_parse),
            "digest" => Some(&self.phase_digest),
            "cache" => Some(&self.phase_cache),
            "warm" => Some(&self.phase_warm),
            "search" => Some(&self.phase_search),
            "render" => Some(&self.phase_render),
            _ => None,
        }
    }
}

/// Gauges `/v1/metrics` sets at scrape time (resident counts move both
/// ways, so they cannot be counters).
#[derive(Debug)]
struct ServerGauges {
    uptime_seconds: Gauge,
    workers: Gauge,
    cache_entries: Gauge,
    cache_inflight: Gauge,
    cache_capacity: Gauge,
    rendered_entries: Gauge,
    rendered_bytes: Gauge,
    rendered_capacity: Gauge,
}

impl ServerGauges {
    fn register(registry: &Registry) -> ServerGauges {
        ServerGauges {
            uptime_seconds: registry
                .gauge("ezrt_uptime_seconds", "Seconds since the server started."),
            workers: registry.gauge("ezrt_http_workers", "Connection worker threads."),
            cache_entries: registry.gauge(
                "ezrt_cache_entries",
                "Completed outcomes resident in the memory tier.",
            ),
            cache_inflight: registry.gauge("ezrt_cache_inflight", "Syntheses currently in flight."),
            cache_capacity: registry.gauge(
                "ezrt_cache_capacity",
                "Configured outcome-entry bound (0 = memory tier disabled).",
            ),
            rendered_entries: registry.gauge(
                "ezrt_rendered_entries",
                "Rendered artifacts resident in the byte tier.",
            ),
            rendered_bytes: registry.gauge(
                "ezrt_rendered_bytes",
                "Bytes resident across all rendered entries.",
            ),
            rendered_capacity: registry.gauge(
                "ezrt_rendered_capacity",
                "Configured rendered-entry bound (0 = byte tier disabled).",
            ),
        }
    }

    /// Reads each value the gauges show once and sets them.
    fn refresh(&self, shared: &Shared) {
        let cache = shared.cache.stats();
        let rendered = shared.cache.rendered_stats();
        self.uptime_seconds.set(shared.started.elapsed().as_secs());
        self.workers.set(shared.workers as u64);
        self.cache_entries.set(cache.entries as u64);
        self.cache_inflight.set(cache.inflight as u64);
        self.cache_capacity.set(cache.capacity as u64);
        self.rendered_entries.set(rendered.entries as u64);
        self.rendered_bytes.set(rendered.bytes);
        self.rendered_capacity.set(rendered.capacity as u64);
    }
}

impl Shared {
    /// Appends one NDJSON line for a routed request to the access log,
    /// when one is configured. Schema (one object per line): `t_micros`
    /// (since server start), `method`, `path`, `status`, `digest`,
    /// `cache`, `rendered` (absent when the response carries no such
    /// header), `phases` (name → micros, in call order),
    /// `elapsed_micros`, `write_micros` (0 when the flush was deferred
    /// to a pipelined batch), `bytes`.
    fn log_request(
        &self,
        request: &Request,
        response: &Response,
        timing: &RequestTiming,
        write_micros: u64,
    ) {
        let Some(log) = &self.log else { return };
        let mut line = String::with_capacity(256);
        line.push_str(&format!(
            "{{\"t_micros\":{},\"method\":{},\"path\":{},\"status\":{}",
            self.started.elapsed().as_micros(),
            report::json_string(&request.method),
            report::json_string(&request.path),
            response.status,
        ));
        for (key, header) in [
            ("digest", "X-Ezrt-Digest"),
            ("cache", "X-Ezrt-Cache"),
            ("rendered", "X-Ezrt-Rendered"),
        ] {
            if let Some(value) = header_value(response, header) {
                line.push_str(&format!(",\"{key}\":{}", report::json_string(value)));
            }
        }
        line.push_str(",\"phases\":{");
        for (index, (name, micros)) in timing.phases.iter().enumerate() {
            if index > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{name}\":{micros}"));
        }
        line.push_str(&format!(
            "}},\"elapsed_micros\":{},\"write_micros\":{write_micros},\"bytes\":{}}}",
            timing.elapsed_micros(),
            response.body.as_bytes().len(),
        ));
        let mut writer = log.lock().expect("access log poisoned");
        let _ = writeln!(writer, "{line}");
    }

    fn request_shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // Wake the accept thread out of its blocking accept() with
            // a throwaway loopback connection, and the workers out of
            // their queue wait. A wildcard bind (0.0.0.0 / ::) is not a
            // connectable destination everywhere — substitute the
            // loopback address of the same family.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(wake);
            self.queue_ready.notify_all();
            self.shed_ready.notify_all();
        }
    }
}

/// A running synthesis service. Dropping the handle without calling
/// [`stop`](Self::stop) or [`wait`](Self::wait) detaches the threads;
/// both consuming methods join every thread before returning, which is
/// what the clean-shutdown tests assert on.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// spawns the accept thread plus the worker pool.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the address cannot be
    /// parsed or bound, or the cache directory cannot be created.
    pub fn start(addr: &str, config: ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(addr).map_err(|error| format!("cannot bind {addr}: {error}"))?;
        let local = listener
            .local_addr()
            .map_err(|error| format!("cannot resolve local address: {error}"))?;
        let shards = if config.cache_shards == 0 {
            8
        } else {
            config.cache_shards
        };
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskTier::open_with_budget(dir, config.cache_max_bytes)?),
            None => None,
        };
        let workers = config.workers.max(1);
        let log = match &config.log_file {
            Some(path) => {
                let file = std::fs::File::options()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|error| format!("cannot open log file {}: {error}", path.display()))?;
                Some(Mutex::new(LineWriter::new(file)))
            }
            None => None,
        };
        let registry = Registry::new();
        // The engine's families live in the global registry; register
        // them now so a scrape before the first search lists them too.
        ezrt_scheduler::register_metrics();
        let metrics = HttpMetrics::register(&registry);
        let gauges = ServerGauges::register(&registry);
        let cache = ResultCache::with_disk(config.cache_capacity, shards, disk);
        cache.register_metrics(&registry);
        let counter = |name, help| registry.counter(name, help);
        let shared = Arc::new(Shared {
            addr: local,
            running: AtomicBool::new(true),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            shed_queue: Mutex::new(VecDeque::new()),
            shed_ready: Condvar::new(),
            cache,
            scheduler: config.scheduler,
            workers,
            max_pending: config.max_pending,
            started: Instant::now(),
            connections: counter(
                "ezrt_http_connections_total",
                "Connections accepted into the worker queue.",
            ),
            shed_connections: counter(
                "ezrt_http_shed_connections_total",
                "Connections shed with 503 because the accept queue was full.",
            ),
            requests: counter("ezrt_http_requests_total", "HTTP requests parsed."),
            schedule_requests: counter(
                "ezrt_http_schedule_requests_total",
                "POST /v1/schedule requests.",
            ),
            artifact_requests: counter(
                "ezrt_http_artifact_requests_total",
                "Artifact requests (GET /v1/artifact and the artifact POST routes).",
            ),
            sweep_requests: counter(
                "ezrt_sweep_requests_total",
                "POST /v1/sweep requests (any status).",
            ),
            sweep_points: counter(
                "ezrt_sweep_points_total",
                "Grid points expanded by completed sweeps.",
            ),
            http_errors: counter(
                "ezrt_http_errors_total",
                "Responses with status 400 or above.",
            ),
            not_modified: counter(
                "ezrt_http_not_modified_total",
                "304 Not Modified responses (conditional hits).",
            ),
            search_counters: SearchStats::COUNTERS
                .iter()
                .filter_map(|c| Some((c, counter(c.server_family?, c.help))))
                .collect(),
            registry,
            metrics,
            gauges,
            log,
        });

        let mut threads = Vec::with_capacity(workers + 2);
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ezrt-accept".to_owned())
                .spawn(move || accept_loop(listener, &accept_shared))
                .map_err(|error| format!("cannot spawn accept thread: {error}"))?,
        );
        let shed_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ezrt-shed".to_owned())
                .spawn(move || shed_loop(&shed_shared))
                .map_err(|error| format!("cannot spawn shed thread: {error}"))?,
        );
        for index in 0..workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ezrt-worker-{index}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .map_err(|error| format!("cannot spawn worker thread: {error}"))?,
            );
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (with the OS-assigned port when `:0` was
    /// requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates shutdown and joins every server thread.
    pub fn stop(mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }

    /// Blocks until a `POST /v1/shutdown` flips the running flag, then
    /// joins every thread.
    pub fn wait(mut self) {
        // The accept thread exits exactly when running turns false, so
        // its join handle is the natural "until shutdown" wait.
        if !self.threads.is_empty() {
            let _ = self.threads.remove(0).join();
        }
        self.shared.request_shutdown(); // no-op if already requested
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection lands here
        }
        match stream {
            Ok(stream) => {
                let mut queue = shared.queue.lock().expect("queue poisoned");
                if shared.max_pending > 0 && queue.len() >= shared.max_pending {
                    // Bounded accept queue: shed instead of queueing
                    // unboundedly, so tail latency under overload stays
                    // the queue bound, not the backlog length. The 503
                    // write happens on the dedicated shed thread — the
                    // accept loop must never block on a client, which
                    // is exactly what a shed-worthy overload produces.
                    drop(queue);
                    shared.shed_connections.inc();
                    let mut sheds = shared.shed_queue.lock().expect("shed queue poisoned");
                    if sheds.len() < MAX_SHED_BACKLOG {
                        sheds.push_back(stream);
                        drop(sheds);
                        shared.shed_ready.notify_one();
                    }
                    // else: drop the stream outright — at this depth of
                    // overload even a polite 503 is unaffordable.
                    continue;
                }
                queue.push_back(stream);
                drop(queue);
                shared.queue_ready.notify_one();
            }
            Err(_) => continue,
        }
    }
    // Unblock the workers so they can observe the flag and drain out.
    shared.queue_ready.notify_all();
}

/// The dedicated shed thread: pops connections the accept loop marked
/// for shedding and answers each with `503 Retry-After` (plus the
/// lingering close), so the blocking socket I/O never runs on the
/// accept thread. Exits when `running` drops; any still-queued sheds
/// are simply dropped.
fn shed_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut sheds = shared.shed_queue.lock().expect("shed queue poisoned");
            loop {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(stream) = sheds.pop_front() {
                    break stream;
                }
                sheds = shared.shed_ready.wait(sheds).expect("shed queue poisoned");
            }
        };
        shed(stream);
    }
}

/// Answers a shed connection with `503 Retry-After` without reading its
/// request (the client has not necessarily sent one yet).
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut response = Response::error(503, "accept queue full; retry shortly");
    response.retry_after = Some(1);
    if write_response(&mut stream, &response, true).is_err() {
        return;
    }
    linger_close(&mut stream);
}

/// Closes a connection that may still have unread request bytes in its
/// receive queue. A plain close there makes the kernel send RST — which
/// can destroy the just-written response in flight before the client
/// reads it. Send FIN, then drain briefly until the client closes its
/// side. The drain is bounded by a wall-clock deadline (~250 ms total,
/// short read timeouts), not a read count, so a client trickling one
/// byte per read cannot stall the calling thread (a connection worker,
/// or the shed thread during overload) for long.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut discard = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut discard) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if !shared.running.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_ready.wait(queue).expect("queue poisoned");
            }
        };
        let Some(stream) = stream else {
            return; // shutdown: queue drained, flag down
        };
        handle_connection(shared, stream);
    }
}

/// One kept-alive connection's I/O state: unconsumed request bytes in
/// `buffer` (where pipelined requests queue up), encoded responses in
/// `out`.
///
/// The framing invariant that makes pipelining deadlock-free: `out` is
/// flushed before **any** blocking socket read ([`fill`](Self::fill) is
/// the only reader, and it flushes first). Parsing a request that is
/// already buffered touches no socket at all — so N requests arriving
/// in one segment are answered with all N responses in one write, and
/// the worker never sleeps on a client that is itself waiting for our
/// queued responses.
struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
    out: Vec<u8>,
}

impl Connection {
    fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            buffer: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Writes every queued response byte to the socket.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.stream.flush()?;
            self.out.clear();
        }
        Ok(())
    }

    /// Flushes queued responses, then reads one chunk off the socket
    /// into the buffer. Returns the number of bytes read (0 = EOF).
    fn fill(&mut self) -> std::io::Result<usize> {
        self.flush()?;
        let mut chunk = [0u8; READ_CHUNK];
        let count = self.stream.read(&mut chunk)?;
        self.buffer.extend_from_slice(&chunk[..count]);
        Ok(count)
    }

    /// Serializes `response` onto the output queue (written on the next
    /// flush, in request order).
    fn enqueue(&mut self, response: &Response, close: bool, head_only: bool) {
        encode_response(&mut self.out, response, close, head_only);
    }

    /// Parses the next request: from the buffer alone when one is fully
    /// buffered (the pipelined case), reading more only as needed.
    /// `Ok(None)` is a clean end of the connection — the peer closed
    /// (or went idle past the keep-alive timeout) *between* requests,
    /// so nothing should be written back. `Err` carries a ready error
    /// `Response` for malformed input.
    fn next_request(&mut self, first: bool) -> Result<Option<Request>, Response> {
        let head_len = loop {
            if let Some(position) = self
                .buffer
                .windows(4)
                .position(|window| window == b"\r\n\r\n")
            {
                break position + 4;
            }
            // No terminator anywhere in the buffer, so every buffered
            // byte belongs to this head.
            if self.buffer.len() > MAX_HEAD_BYTES {
                return Err(Response::error(413, "request head too large"));
            }
            match self.fill() {
                Ok(0) if self.buffer.is_empty() => return Ok(None),
                Ok(0) => return Err(Response::error(400, "connection closed mid-request")),
                Ok(_) => {}
                Err(_) if self.buffer.is_empty() && !first => return Ok(None), // idle keep-alive
                Err(_) => return Err(Response::error(408, "timed out reading request head")),
            }
        };
        let head = std::str::from_utf8(&self.buffer[..head_len])
            .map_err(|_| Response::error(400, "non-UTF-8 header"))?;
        let head = parse_head(head)?;
        if head.content_length > MAX_BODY_BYTES {
            return Err(Response::error(413, "request body too large"));
        }
        let total = head_len + head.content_length;
        while self.buffer.len() < total {
            match self.fill() {
                Ok(0) => return Err(Response::error(400, "connection closed mid-body")),
                Ok(_) => {}
                Err(_) => return Err(Response::error(400, "connection closed mid-body")),
            }
        }
        let body = self.buffer[head_len..total].to_vec();
        self.buffer.drain(..total);
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            keep_alive: head.keep_alive,
            if_none_match: head.if_none_match,
        }))
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.connections.inc();
    // Keep-alive turns each connection into a request/response ping-pong
    // of small writes; without TCP_NODELAY, Nagle holds every second
    // write until the peer's (possibly delayed) ACK, stalling loopback
    // round-trips by tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut conn = Connection::new(stream);
    let mut served: u64 = 0;
    loop {
        let first = served == 0;
        // The first request gets the full IO timeout; an idle kept-alive
        // connection is closed sooner so it cannot pin a worker.
        let _ =
            conn.stream
                .set_read_timeout(Some(if first { IO_TIMEOUT } else { KEEP_ALIVE_IDLE }));
        let request = match conn.next_request(first) {
            Ok(Some(request)) => request,
            Ok(None) => {
                // Clean close or idle timeout between requests; any
                // still-queued responses were flushed before the read.
                let _ = conn.flush();
                break;
            }
            Err(response) => {
                shared.requests.inc();
                shared.http_errors.inc();
                // Parse errors answer before the body was consumed, so
                // a plain close would RST the error response away.
                conn.enqueue(&response, true, false);
                if conn.flush().is_ok() {
                    linger_close(&mut conn.stream);
                }
                break;
            }
        };
        shared.requests.inc();
        served += 1;
        let head_only = request.method == "HEAD";
        let mut timing = RequestTiming::new();
        // A panicking handler (a kernel bug surfacing through a replay
        // assert, say) must not shrink the pool and must still answer
        // the client: catch the unwind and convert it to a 500.
        let mut response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(shared, &request, &mut timing)
        }))
        .unwrap_or_else(|_| Response::error(500, "internal error while handling the request"));
        if response.status >= 400 {
            shared.http_errors.inc();
        }
        if response.status == 304 {
            shared.not_modified.inc();
        }
        // Observability: total + phase histograms, then the phase
        // breakdown as a `Server-Timing` header and — on the
        // digest-addressed routes, recognizable by their provenance
        // header — the total as `X-Ezrt-Elapsed-Micros`.
        let elapsed_micros = timing.elapsed_micros();
        shared.metrics.request_micros.observe(elapsed_micros);
        shared
            .metrics
            .response_bytes
            .observe(response.body.as_bytes().len() as u64);
        for (name, micros) in &timing.phases {
            if let Some(histogram) = shared.metrics.phase(name) {
                histogram.observe(*micros);
            }
        }
        if header_value(&response, "X-Ezrt-Cache").is_some() {
            response
                .headers
                .push(("X-Ezrt-Elapsed-Micros", elapsed_micros.to_string()));
        }
        response
            .headers
            .push(("Server-Timing", timing.server_timing()));
        let close = !request.keep_alive
            || served >= MAX_CONNECTION_REQUESTS
            || !shared.running.load(Ordering::SeqCst);
        conn.enqueue(&response, close, head_only);
        // Flush eagerly when no pipelined request is waiting in the
        // buffer (the next read would flush anyway), so the write cost
        // lands on the request that caused it; a pipelined batch defers
        // to one flush whose cost the batch's last request reports.
        let mut write_micros = 0;
        let flushed = if close || conn.buffer.is_empty() {
            let write_started = Instant::now();
            let result = conn.flush();
            write_micros = write_started.elapsed().as_micros() as u64;
            shared.metrics.write_micros.observe(write_micros);
            Some(result)
        } else {
            None
        };
        shared.log_request(&request, &response, &timing, write_micros);
        if close {
            // The client may still have pipelined requests in flight
            // past the per-connection cap; linger so the final response
            // is not RST away with them.
            if matches!(flushed, Some(Ok(()))) && !conn.buffer.is_empty() {
                linger_close(&mut conn.stream);
            }
            break;
        }
        // Keep-alive: loop. If another request is already buffered it
        // is parsed without touching the socket (the pipelined case);
        // otherwise the next fill() flushes the queued responses first.
    }
}

/// A parsed request: method, path (query split off), raw body,
/// conditional validator, and whether the connection should be kept
/// alive afterwards.
struct Request {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
    keep_alive: bool,
    /// The raw `If-None-Match` header value, when present.
    if_none_match: Option<String>,
}

/// The parsed request head, before the body is drained.
struct Head {
    method: String,
    path: String,
    query: String,
    keep_alive: bool,
    content_length: usize,
    if_none_match: Option<String>,
}

/// Parses a request head (request line + headers, including the final
/// CRLFCRLF) into its routed parts.
fn parse_head(head: &str) -> Result<Head, Response> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Response::error(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "unsupported protocol version"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = 0usize;
    let mut if_none_match = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "invalid Content-Length"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Chunked bodies are not parsed; silently ignoring the
                // header would leave the chunk stream unread and desync
                // the framing of a kept-alive connection (the next
                // "request line" would be a chunk size). Refuse and
                // close instead.
                return Err(Response::error(
                    501,
                    "Transfer-Encoding is not supported; send Content-Length",
                ));
            } else if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.trim().to_owned());
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), query.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Ok(Head {
        method: method.to_owned(),
        path,
        query,
        keep_alive,
        content_length,
        if_none_match,
    })
}

/// A response body: owned text (reports, errors) or bytes shared with
/// the rendered-byte cache (no copy on an artifact hit).
enum Body {
    Text(String),
    Shared(Arc<[u8]>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Text(text) => text.as_bytes(),
            Body::Shared(bytes) => bytes,
        }
    }
}

/// A response about to be serialized.
struct Response {
    status: u16,
    /// The `Content-Type` header value.
    content_type: &'static str,
    /// The strong validator (`ETag: "<digest>:<kind>"`), when the
    /// resource is digest-addressed.
    etag: Option<String>,
    /// Extra response headers (artifact provenance).
    headers: Vec<(&'static str, String)>,
    /// `Retry-After` seconds (503 shedding).
    retry_after: Option<u32>,
    body: Body,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            etag: None,
            headers: Vec::new(),
            retry_after: None,
            body: Body::Text(body),
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\n  \"error\": {}\n}}", report::json_string(message)),
        )
    }

    /// A header-only `304 Not Modified`: same `ETag` the full response
    /// would carry, `Content-Length: 0`, no body.
    fn not_modified(content_type: &'static str, etag: String) -> Response {
        Response {
            status: 304,
            content_type,
            etag: Some(etag),
            headers: Vec::new(),
            retry_after: None,
            body: Body::Text(String::new()),
        }
    }
}

/// Wall-clock accounting for one routed request: total elapsed plus
/// named phase durations in call order. Rendered as a `Server-Timing`
/// response header (`name;dur=<ms>`), fed into the per-phase
/// histograms, and written to the access log.
struct RequestTiming {
    started: Instant,
    /// `(phase name, duration in micros)`, in the order measured.
    phases: Vec<(&'static str, u64)>,
}

impl RequestTiming {
    fn new() -> RequestTiming {
        RequestTiming {
            started: Instant::now(),
            phases: Vec::new(),
        }
    }

    /// Records a phase measured externally.
    fn phase(&mut self, name: &'static str, micros: u64) {
        self.phases.push((name, micros));
    }

    /// Times `body` as phase `name`.
    fn time<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = body();
        self.phase(name, started.elapsed().as_micros() as u64);
        value
    }

    fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The `Server-Timing` header value: every phase plus the running
    /// total, durations in milliseconds per the header's spec.
    fn server_timing(&self) -> String {
        let mut value = String::new();
        for (name, micros) in &self.phases {
            value.push_str(&format!("{name};dur={:.3}, ", *micros as f64 / 1e3));
        }
        value.push_str(&format!(
            "total;dur={:.3}",
            self.elapsed_micros() as f64 / 1e3
        ));
        value
    }
}

/// The value of the first extra header named `name`, when present.
fn header_value<'a>(response: &'a Response, name: &str) -> Option<&'a str> {
    response
        .headers
        .iter()
        .find(|(header, _)| *header == name)
        .map(|(_, value)| value.as_str())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one response onto `out`. `head_only` (HEAD requests)
/// writes exactly the headers the full response would — including the
/// `Content-Length` of the suppressed body — and no body bytes.
fn encode_response(out: &mut Vec<u8>, response: &Response, close: bool, head_only: bool) {
    let body = response.body.as_bytes();
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        body.len(),
    );
    if let Some(etag) = &response.etag {
        head.push_str(&format!("ETag: {etag}\r\n"));
    }
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    out.extend_from_slice(head.as_bytes());
    if !head_only {
        out.extend_from_slice(body);
    }
}

/// Writes one response straight to a stream (the shed path, which has
/// no per-connection buffers).
fn write_response(stream: &mut TcpStream, response: &Response, close: bool) -> std::io::Result<()> {
    let mut out = Vec::new();
    encode_response(&mut out, response, close, false);
    stream.write_all(&out)?;
    stream.flush()
}

/// The strong validator for a digest-addressed resource: artifacts are
/// pure functions of `(digest, kind)`, so the pair *is* the entity tag.
fn artifact_etag(digest: &SpecDigest, kind: ArtifactKind) -> String {
    format!("\"{digest}:{kind}\"")
}

/// Whether an `If-None-Match` header value matches `etag` (strong
/// comparison over a comma-separated candidate list; `*` matches any
/// existing representation).
fn if_none_match_hit(header: Option<&str>, etag: &str) -> bool {
    let Some(header) = header else { return false };
    header
        .split(',')
        .map(str::trim)
        .any(|candidate| candidate == "*" || candidate == etag)
}

fn route(shared: &Shared, request: &Request, timing: &mut RequestTiming) -> Response {
    // HEAD answers like the underlying route, minus the body (the
    // suppression happens in the response writer, so handlers run
    // unchanged and headers stay identical). GET routes are the normal
    // case; the POST spec routes accept it too, so a client can probe
    // an artifact's headers without downloading it. `/v1/shutdown`
    // deliberately stays POST-only — a HEAD must never cause effects.
    let method = match request.method.as_str() {
        "HEAD" => match request.path.as_str() {
            "/v1/schedule" | "/v1/check" | "/v1/table" | "/v1/codegen" | "/v1/gantt"
            | "/v1/sweep" => "POST",
            _ => "GET",
        },
        other => other,
    };
    if let Some(rest) = request.path.strip_prefix("/v1/artifact/") {
        return match method {
            "GET" => artifact_get(shared, rest, request, timing),
            _ => Response::error(405, "method not allowed"),
        };
    }
    match (method, request.path.as_str()) {
        ("GET", "/v1/healthz") => Response::json(200, "{\n  \"status\": \"ok\"\n}".to_owned()),
        ("GET", "/v1/stats") => stats(shared),
        ("GET", "/v1/metrics") => metrics(shared),
        ("POST", "/v1/schedule") => schedule(shared, request, timing),
        ("POST", "/v1/check") => check(request, timing),
        ("POST", "/v1/table") => artifact_post(shared, request, ArtifactKind::Table, timing),
        ("POST", "/v1/codegen") => {
            let kind = match query_value(&request.query, "target") {
                None => ArtifactKind::Codegen(ezrt_codegen::Target::PosixSim),
                Some(target) => match ArtifactKind::parse(&format!("codegen:{target}")) {
                    Ok(kind) => kind,
                    Err(message) => return Response::error(400, &message),
                },
            };
            artifact_post(shared, request, kind, timing)
        }
        ("POST", "/v1/gantt") => artifact_post(shared, request, ArtifactKind::Gantt, timing),
        ("POST", "/v1/sweep") => sweep(shared, request, timing),
        ("POST", "/v1/shutdown") => {
            shared.request_shutdown();
            Response::json(200, "{\n  \"status\": \"shutting down\"\n}".to_owned())
        }
        (
            _,
            "/v1/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/schedule" | "/v1/check"
            | "/v1/table" | "/v1/codegen" | "/v1/gantt" | "/v1/sweep" | "/v1/shutdown",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "not found"),
    }
}

/// Parses the spec XML body into a project carrying the server's base
/// scheduler configuration with the request's effective `jobs` (the
/// sweep fan-out width) and `por`. Note that `por` — unlike `jobs` — is
/// part of the canonical config bytes, so requests at different levels
/// key different cache entries.
fn parse_project(shared: &Shared, request: &Request) -> Result<Project, Response> {
    let xml = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "spec body is not UTF-8"))?;
    let jobs = match query_value(&request.query, "jobs") {
        None => shared.scheduler.parallelism,
        Some(value) => value
            .parse::<usize>()
            .ok()
            .filter(|&jobs| (1..=MAX_REQUEST_JOBS).contains(&jobs))
            .map(Parallelism::new)
            .ok_or_else(|| {
                Response::error(
                    400,
                    &format!("jobs expects a number in 1..={MAX_REQUEST_JOBS}, found {value:?}"),
                )
            })?,
    };
    let por = match query_value(&request.query, "por") {
        None => shared.scheduler.por,
        Some(value) => PorLevel::parse(value).ok_or_else(|| {
            Response::error(400, &format!("por expects off|stubborn, found {value:?}"))
        })?,
    };
    let project = Project::from_dsl(xml)
        .map_err(|error| Response::error(400, &error.to_string()))?
        .with_config(SchedulerConfig {
            parallelism: jobs,
            por,
            ..shared.scheduler.clone()
        });
    Ok(project)
}

fn schedule(shared: &Shared, request: &Request, timing: &mut RequestTiming) -> Response {
    shared.schedule_requests.inc();
    let project = match timing.time("parse", || parse_project(shared, request)) {
        Ok(project) => project,
        Err(response) => return response,
    };
    let digest = timing.time("digest", || project_digest(&project));
    // The report is addressed by the digest alone (the volatile `cache`
    // provenance field is not part of the resource), so a matching tag
    // proves the client's copy is current before any lookup or
    // synthesis happens — the conditional fast path does zero cache
    // work.
    let etag = artifact_etag(&digest, ArtifactKind::ReportJson);
    if if_none_match_hit(request.if_none_match.as_deref(), &etag) {
        let mut response = Response::not_modified("application/json", etag);
        response.headers.push(("X-Ezrt-Digest", digest.to_hex()));
        return response;
    }
    let warm_hint = match query_value(&request.query, "warm") {
        Some(text) => match SpecDigest::from_hex(text) {
            Some(warm) => Some(warm),
            None => return Response::error(400, "warm must be a 48-hex-character digest"),
        },
        None => None,
    };
    let structure = structure_digest(&project);
    // Misses run the closure on this thread, so the warm-start and
    // search costs are measured inside it and subtracted from the
    // surrounding lookup to leave the pure cache-coordination time.
    let warm_micros = std::cell::Cell::new(0u64);
    let search_micros = std::cell::Cell::new(0u64);
    let lookup_started = Instant::now();
    let (outcome, lookup) = shared.cache.get_or_compute(digest, || {
        let warm_started = Instant::now();
        let ancestor = warm_ancestor(shared, &project, digest, structure, warm_hint);
        warm_micros.set(warm_started.elapsed().as_micros() as u64);
        let search_started = Instant::now();
        let outcome = match ancestor {
            Some(ancestor) => compute_outcome_incremental(&project, digest, &ancestor),
            None => compute_outcome(&project, digest),
        };
        search_micros.set(search_started.elapsed().as_micros() as u64);
        outcome
    });
    let lookup_micros = lookup_started.elapsed().as_micros() as u64;
    timing.phase(
        "cache",
        lookup_micros.saturating_sub(warm_micros.get() + search_micros.get()),
    );
    if lookup == Lookup::Miss {
        timing.phase("warm", warm_micros.get());
        timing.phase("search", search_micros.get());
    }
    // Only the flight that ran the search reports its warm-start
    // counters (joiners and cache hits would double-count them), and
    // only outcomes that actually hold a schedule become warm-start
    // ancestors for later structural neighbours.
    if lookup == Lookup::Miss {
        for (counter, cell) in &shared.search_counters {
            cell.add((counter.get)(&outcome.stats));
        }
    }
    if outcome.feasible && matches!(lookup, Lookup::Miss | Lookup::Disk) {
        shared.cache.note_ancestor(structure, digest);
    }
    let mut fields: JsonFields = outcome.fields.clone();
    fields.push(("cache", report::json_string(lookup.as_str())));
    // Infeasibility is a successful analysis with a negative verdict,
    // so it is 200 like any other completed synthesis.
    let mut response = Response::json(200, report::render_pretty(&fields));
    response.etag = Some(etag);
    response.headers.push(("X-Ezrt-Digest", digest.to_hex()));
    response
        .headers
        .push(("X-Ezrt-Cache", lookup.as_str().to_owned()));
    response
}

/// `POST /v1/sweep?grid=...`: the base spec in the body, the grid in
/// the query, one deterministic JSON row per grid point in the body —
/// byte-identical to `ezrt sweep` on the same inputs. `?jobs=` widens
/// the point fan-out (per-point synthesis stays sequential), so it can
/// never change the rows; wall-clock and dedup provenance travel in
/// `X-Ezrt-Sweep-*` headers, never in the body.
fn sweep(shared: &Shared, request: &Request, timing: &mut RequestTiming) -> Response {
    shared.sweep_requests.inc();
    let project = match timing.time("parse", || parse_project(shared, request)) {
        Ok(project) => project,
        Err(response) => return response,
    };
    let Some(grid_text) = query_value(&request.query, "grid") else {
        return Response::error(
            400,
            "sweep requires a ?grid= parameter, e.g. grid=periods:100,150;deadlines:75,100",
        );
    };
    let grid = match SweepGrid::parse(grid_text) {
        Ok(grid) => grid,
        Err(message) => return Response::error(400, &message),
    };
    let options = SweepOptions {
        fanout: project.config().parallelism,
        scheduler: shared.scheduler.clone(),
    };
    // Oversize grids come back from the engine as the only error it
    // reports; everything per-point is a row, not a failure.
    let report = match timing.time("search", || {
        run_sweep(project.spec(), &grid, &options, &shared.cache)
    }) {
        Ok(report) => report,
        Err(message) => return Response::error(400, &message),
    };
    shared.sweep_points.add(report.rows.len() as u64);
    let mut response = Response::json(200, report.render());
    response.content_type = "application/x-ndjson";
    response
        .headers
        .push(("X-Ezrt-Digest", report.base_digest.to_hex()));
    response
        .headers
        .push(("X-Ezrt-Sweep-Points", report.rows.len().to_string()));
    response
        .headers
        .push(("X-Ezrt-Sweep-Unique", report.unique_digests.to_string()));
    response
        .headers
        .push(("X-Ezrt-Sweep-Feasible", report.feasible.to_string()));
    response
}

/// Resolves the warm-start ancestor for a schedule-cache miss: the
/// explicit `warm=<digest>` hint when it names a cached feasible
/// outcome, otherwise the nearest ancestor from the structure index —
/// among cached outcomes sharing this spec's structure digest, the one
/// whose spec differs in the fewest task sub-digests, ties going to the
/// most recently computed. Runs inside the singleflight compute (misses
/// only), so hits and joiners never pay for it.
fn warm_ancestor(
    shared: &Shared,
    project: &Project,
    digest: SpecDigest,
    structure: SpecDigest,
    hint: Option<SpecDigest>,
) -> Option<Arc<SynthesisOutcome>> {
    if let Some(warm) = hint {
        if warm == digest {
            return None;
        }
        let (outcome, _) = shared.cache.lookup(warm)?;
        return outcome.solution.is_some().then_some(outcome);
    }
    let mut best: Option<(usize, Arc<SynthesisOutcome>)> = None;
    for candidate in shared.cache.ancestor_candidates(&structure) {
        if candidate == digest {
            continue;
        }
        let Some((outcome, _)) = shared.cache.lookup(candidate) else {
            continue;
        };
        let Some(solution) = outcome.solution.as_ref() else {
            continue;
        };
        let changed = project.changed_tasks(solution.spec()).len();
        // Candidates arrive most-recent-first, so a strict `<` keeps
        // the most recent among equally-close ancestors.
        if best.as_ref().is_none_or(|(fewest, _)| changed < *fewest) {
            best = Some((changed, outcome));
        }
    }
    best.map(|(_, outcome)| outcome)
}

/// `GET /v1/artifact/<digest>/<kind>`: serve an artifact of an already
/// synthesized digest straight from the (rendered, memory or disk)
/// cache. Never synthesizes — an unknown digest is a 404, not a queued
/// search (and not a 304: a conditional request still requires the
/// resource to exist here).
fn artifact_get(
    shared: &Shared,
    rest: &str,
    request: &Request,
    timing: &mut RequestTiming,
) -> Response {
    shared.artifact_requests.inc();
    let Some((digest_hex, kind_text)) = rest.split_once('/') else {
        return Response::error(400, "expected /v1/artifact/<digest>/<kind>");
    };
    let Some(digest) = SpecDigest::from_hex(digest_hex) else {
        return Response::error(400, "digest must be 48 hex characters");
    };
    let kind = match ArtifactKind::parse(kind_text) {
        Ok(kind) => kind,
        Err(message) => return Response::error(400, &message),
    };
    let lookup_result = timing.time("cache", || shared.cache.lookup(digest));
    let Some((outcome, lookup)) = lookup_result else {
        return Response::error(
            404,
            &format!("no cached outcome for digest {digest}; POST the spec first"),
        );
    };
    respond_artifact(shared, &outcome, kind, lookup, request, timing)
}

/// `POST /v1/table|/v1/codegen|/v1/gantt`: synthesize (through the
/// cache) and render one artifact of the posted spec.
fn artifact_post(
    shared: &Shared,
    request: &Request,
    kind: ArtifactKind,
    timing: &mut RequestTiming,
) -> Response {
    shared.artifact_requests.inc();
    let project = match timing.time("parse", || parse_project(shared, request)) {
        Ok(project) => project,
        Err(response) => return response,
    };
    let digest = timing.time("digest", || project_digest(&project));
    let search_micros = std::cell::Cell::new(0u64);
    let lookup_started = Instant::now();
    let (outcome, lookup) = shared.cache.get_or_compute(digest, || {
        let search_started = Instant::now();
        let outcome = compute_outcome(&project, digest);
        search_micros.set(search_started.elapsed().as_micros() as u64);
        outcome
    });
    let lookup_micros = lookup_started.elapsed().as_micros() as u64;
    timing.phase("cache", lookup_micros.saturating_sub(search_micros.get()));
    if lookup == Lookup::Miss {
        timing.phase("search", search_micros.get());
    }
    respond_artifact(shared, &outcome, kind, lookup, request, timing)
}

/// Serves `kind` of a cached outcome: a conditional hit is a
/// header-only 304 (no render at all), everything else goes through the
/// rendered-byte tier — the body is an `Arc` clone of the cached bytes
/// on a hit, byte-identical to the CLI either way. Provenance rides in
/// headers: `X-Ezrt-Cache` for the outcome tier, `X-Ezrt-Rendered` for
/// the byte tier.
fn respond_artifact(
    shared: &Shared,
    outcome: &SynthesisOutcome,
    kind: ArtifactKind,
    lookup: Lookup,
    request: &Request,
    timing: &mut RequestTiming,
) -> Response {
    let etag = artifact_etag(&outcome.digest, kind);
    // The tag alone proves the client's copy is current (artifacts are
    // immutable per digest) — but only when a representation exists:
    // a kind that needs a schedule still answers 409 for an infeasible
    // outcome, conditional or not.
    if (outcome.feasible || !kind.requires_schedule())
        && if_none_match_hit(request.if_none_match.as_deref(), &etag)
    {
        let mut response = Response::not_modified(kind.content_type(), etag);
        response.headers = vec![
            ("X-Ezrt-Digest", outcome.digest.to_hex()),
            ("X-Ezrt-Artifact", kind.to_string()),
            ("X-Ezrt-Cache", lookup.as_str().to_owned()),
        ];
        return response;
    }
    match timing.time("render", || shared.cache.render_artifact(outcome, kind)) {
        Ok(artifact) => Response {
            status: 200,
            content_type: artifact.content_type,
            etag: Some(etag),
            headers: vec![
                ("X-Ezrt-Digest", outcome.digest.to_hex()),
                ("X-Ezrt-Artifact", kind.to_string()),
                ("X-Ezrt-Cache", lookup.as_str().to_owned()),
                (
                    "X-Ezrt-Rendered",
                    if artifact.cached { "hit" } else { "miss" }.to_owned(),
                ),
            ],
            retry_after: None,
            body: Body::Shared(artifact.bytes),
        },
        // The spec is fine but holds no feasible schedule: a semantic
        // conflict with the requested artifact, not a bad request.
        Err(error @ RenderError::Infeasible { .. }) => Response::error(409, &error.to_string()),
    }
}

fn check(request: &Request, timing: &mut RequestTiming) -> Response {
    let xml = match std::str::from_utf8(&request.body) {
        Ok(xml) => xml,
        Err(_) => return Response::error(400, "spec body is not UTF-8"),
    };
    let project = match timing.time("parse", || Project::from_dsl(xml)) {
        Ok(project) => project,
        Err(error) => {
            return Response::json(
                400,
                format!(
                    "{{\n  \"ok\": false,\n  \"error\": {}\n}}",
                    report::json_string(&error.to_string())
                ),
            )
        }
    };
    let spec = project.spec();
    let fields: JsonFields = vec![
        ("ok", "true".to_owned()),
        (
            "spec_digest",
            report::json_string(&project_digest(&project).to_hex()),
        ),
        ("name", report::json_string(spec.name())),
        ("tasks", spec.task_count().to_string()),
        ("processors", spec.processors().count().to_string()),
        ("messages", spec.messages().count().to_string()),
        ("hyperperiod", spec.hyperperiod().to_string()),
        ("total_instances", spec.total_instances().to_string()),
    ];
    Response::json(200, report::render_pretty(&fields))
}

/// `GET /v1/stats`: the human-facing JSON counters. Each cell is read
/// once per response, so one body cannot contradict itself by
/// re-reading a moving counter mid-render. The field list, order and
/// formatting are frozen — clients parse this.
fn stats(shared: &Shared) -> Response {
    let connections = shared.connections.get();
    let requests = shared.requests.get();
    let mut fields: JsonFields = vec![
        ("status", "\"ok\"".to_owned()),
        (
            "uptime_ms",
            format!("{:.3}", shared.started.elapsed().as_secs_f64() * 1e3),
        ),
        ("workers", shared.workers.to_string()),
        (
            "default_jobs",
            shared.scheduler.parallelism.jobs().to_string(),
        ),
        (
            "default_por",
            report::json_string(shared.scheduler.por.name()),
        ),
        ("connections", connections.to_string()),
        ("requests", requests.to_string()),
        (
            "requests_per_connection",
            format!("{:.3}", requests as f64 / connections.max(1) as f64),
        ),
        ("max_pending", shared.max_pending.to_string()),
    ];
    for (key, cell) in [
        ("shed_connections", &shared.shed_connections),
        ("schedule_requests", &shared.schedule_requests),
        ("artifact_requests", &shared.artifact_requests),
        ("sweep_requests", &shared.sweep_requests),
        ("sweep_points", &shared.sweep_points),
        ("http_errors", &shared.http_errors),
        ("not_modified", &shared.not_modified),
    ] {
        fields.push((key, cell.get().to_string()));
    }
    for (counter, cell) in &shared.search_counters {
        fields.push((counter.field, cell.get().to_string()));
    }
    let cache = shared.cache.stats();
    let rendered = shared.cache.rendered_stats();
    let disk = shared.cache.disk_stats().unwrap_or_default();
    for (key, value) in [
        ("cache_capacity", cache.capacity as u64),
        ("cache_entries", cache.entries as u64),
        ("cache_inflight", cache.inflight as u64),
        ("cache_hits", cache.hits),
        ("cache_disk_hits", cache.disk_hits),
        ("cache_misses", cache.misses),
        ("cache_joined", cache.joined),
        ("cache_evictions", cache.evictions),
        ("rendered_capacity", rendered.capacity as u64),
        ("rendered_entries", rendered.entries as u64),
        ("rendered_hits", rendered.hits),
        ("rendered_misses", rendered.misses),
        ("rendered_evictions", rendered.evictions),
        ("rendered_bytes", rendered.bytes),
        ("disk_writes", disk.writes),
        ("disk_load_errors", disk.load_errors),
        ("disk_gc_evicted", disk.gc_evicted),
        ("disk_gc_reaped", disk.gc_reaped),
        ("disk_gc_reclaimed_bytes", disk.gc_reclaimed_bytes),
    ] {
        fields.push((key, value.to_string()));
    }
    Response::json(200, report::render_pretty(&fields))
}

/// `GET /v1/metrics`: Prometheus text exposition (version 0.0.4) of the
/// per-server registry merged with the process-wide engine registry.
/// Scrape-time gauges are refreshed first.
fn metrics(shared: &Shared) -> Response {
    shared.gauges.refresh(shared);
    let text = ezrt_obs::render_prometheus(&[&shared.registry, ezrt_obs::global()]);
    let mut response = Response::json(200, text);
    response.content_type = "text/plain; version=0.0.4";
    response
}

/// Extracts `key=value` from a raw query string (no percent-decoding —
/// the recognized parameters are numeric or simple identifiers).
fn query_value<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(name, _)| *name == key)
        .map(|(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_values_parse() {
        assert_eq!(query_value("jobs=4", "jobs"), Some("4"));
        assert_eq!(query_value("a=1&jobs=2", "jobs"), Some("2"));
        assert_eq!(query_value("target=i8051", "target"), Some("i8051"));
        assert_eq!(query_value("", "jobs"), None);
        assert_eq!(query_value("jobs", "jobs"), None);
    }

    #[test]
    fn status_texts_cover_the_emitted_codes() {
        for code in [200, 304, 400, 404, 405, 408, 409, 413, 500, 501, 503] {
            assert_ne!(status_text(code), "Unknown");
        }
    }

    #[test]
    fn if_none_match_comparison_is_strong_and_list_aware() {
        let etag = "\"abc:table\"";
        assert!(if_none_match_hit(Some("\"abc:table\""), etag));
        assert!(if_none_match_hit(Some("\"x\", \"abc:table\""), etag));
        assert!(if_none_match_hit(Some("*"), etag));
        assert!(!if_none_match_hit(Some("\"abc:gantt\""), etag));
        assert!(!if_none_match_hit(Some("abc:table"), etag), "unquoted");
        assert!(!if_none_match_hit(None, etag));
    }

    #[test]
    fn head_encoding_keeps_the_full_content_length_and_drops_the_body() {
        let response = Response::json(200, "{\"a\": 1}".to_owned());
        let mut full = Vec::new();
        encode_response(&mut full, &response, false, false);
        let mut head = Vec::new();
        encode_response(&mut head, &response, false, true);
        let full = String::from_utf8(full).unwrap();
        let head = String::from_utf8(head).unwrap();
        assert!(full.ends_with("{\"a\": 1}"));
        assert!(head.ends_with("\r\n\r\n"), "no body bytes");
        assert_eq!(full.strip_suffix("{\"a\": 1}").unwrap(), head);
        assert!(head.contains("Content-Length: 8\r\n"), "{head}");
    }

    #[test]
    fn not_modified_encodes_header_only_with_the_etag() {
        let response = Response::not_modified("application/json", "\"d:report-json\"".to_owned());
        let mut out = Vec::new();
        encode_response(&mut out, &response, false, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(text.contains("ETag: \"d:report-json\"\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body");
    }
}
