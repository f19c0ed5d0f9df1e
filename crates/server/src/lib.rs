//! The ezRealtime synthesis **service**: the one-shot `spec → schedule`
//! pipeline of [`ezrt_core::Project`] turned into a long-lived,
//! cache-fronted server plus an offline batch mode.
//!
//! The original ezRealtime is a one-shot Eclipse flow. In a CI loop or
//! a model-editing session the same (or a near-identical) specification
//! is synthesized over and over; this crate makes the repeat case a
//! lookup instead of a search. Its cache key is
//! [`ezrt_artifacts::digest`], a stable FNV-1a 64+128 digest over the
//! canonical serialization of the parsed spec + scheduler configuration
//! ([`Project::canonical_bytes`](ezrt_core::Project::canonical_bytes)),
//! so semantically identical XML documents (whitespace, attribute order)
//! map to one cache key; its rows are [`ezrt_artifacts::report`]'s flat
//! JSON, shared with `ezrt schedule --json`, so CLI and server outputs
//! are byte-identical and join-able by `spec_digest`.
//!
//! * [`cache`] — a sharded, singleflight [`ResultCache`]: digest →
//!   `Arc<SynthesisOutcome>` behind per-shard mutexes, where concurrent
//!   requests for the same digest block on a single in-flight synthesis,
//!   with size-bounded LRU eviction and hit/miss/join/eviction counters;
//!   [`ResultCache::render_artifact`] memoizes each artifact's bytes on
//!   its outcome, so a repeat artifact request (HTTP route or CLI
//!   artifact command) is an `Arc` clone instead of a re-render, and
//!   the outcome LRU bounds the bytes too;
//! * [`disk`] — the persistent tier ([`DiskTier`], `--cache-dir`):
//!   entries spill to versioned, checksummed files keyed by the digest,
//!   so a restarted server (or a CI fleet sharing a directory)
//!   warm-starts without re-searching; an optional byte budget
//!   (`--cache-max-bytes`) keeps the store bounded with an mtime-LRU
//!   sweep after every write;
//! * [`http`] — a std-only HTTP/1.1 front end (`std::net::TcpListener`,
//!   hand-rolled request parsing, zero new dependencies, keep-alive
//!   **pipelined** connections — buffered requests are drained before
//!   any blocking read, responses leave in order — conditional
//!   requests (strong `ETag: "<digest>:<kind>"`, `If-None-Match` →
//!   header-only `304`), `HEAD` on every readable route, and a bounded
//!   accept queue with 503 shedding) exposing
//!   `POST /v1/schedule`, `POST /v1/check`, `POST /v1/table`,
//!   `POST /v1/codegen`, `POST /v1/gantt`, `POST /v1/sweep`,
//!   `GET /v1/artifact/<digest>/<kind>`, `GET /v1/healthz`,
//!   `GET /v1/stats`, `GET /v1/metrics` (Prometheus text exposition of
//!   the `ezrt_obs` registries) and `POST /v1/shutdown` over a fixed
//!   worker pool, with per-phase `Server-Timing` headers and an
//!   optional NDJSON access log;
//! * [`batch`] — offline fan-out of a directory of spec files through
//!   the *same* cache, one JSON line per spec (the report fields, no
//!   rendered artifact); its fan-out loop also drives sweeps;
//! * [`sweep`] — the feasibility-frontier engine: a base spec crossed
//!   with a parameter grid (`ezrt sweep`, `POST /v1/sweep`), every
//!   point warm-started from the base outcome and deduplicated through
//!   the digest cache, rows byte-identical across surfaces and fan-out
//!   widths.
//!
//! # Examples
//!
//! ```
//! use ezrt_artifacts::project_digest;
//! use ezrt_server::{ResultCache, Warm};
//! use ezrt_core::Project;
//! use ezrt_spec::corpus::small_control;
//!
//! let cache = ResultCache::new(64, 4);
//! let project = Project::new(small_control());
//! let digest = project_digest(&project);
//!
//! let first = cache.resolve(&project, digest, Warm::Cold);
//! assert_eq!(first.lookup.as_str(), "miss");
//! let second = cache.resolve(&project, digest, Warm::Cold);
//! assert_eq!(second.lookup.as_str(), "hit");
//! assert!(std::sync::Arc::ptr_eq(&first.outcome, &second.outcome));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod disk;
pub mod http;
pub mod sweep;

pub use cache::{CacheStats, Lookup, RenderedArtifact, Resolved, ResultCache, Warm};
pub use disk::{DiskStats, DiskTier};
pub use http::{Server, ServerConfig};
