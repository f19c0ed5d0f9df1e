//! The rendered-byte cache: `(SpecDigest, ArtifactKind) → Arc<[u8]>`
//! behind the same sharded-mutex + capacity-LRU shape as
//! [`ResultCache`](crate::cache::ResultCache).
//!
//! Artifacts are **immutable per digest**: `ezrt_artifacts::render` is a
//! pure function of a cached outcome, so once a `(digest, kind)` pair
//! has been rendered its bytes can never change. A hot artifact hit
//! therefore should not re-derive net/timeline/table and re-build the
//! string on every request — this tier memoizes the finished bytes and
//! turns a repeat artifact request into a shard-lock + `Arc` clone,
//! the same cost class as a report hit.
//!
//! No singleflight here: rendering is orders of magnitude cheaper than
//! synthesis, and purity means two racing renders of one key insert
//! byte-identical values (last insert wins, the loser's bytes are
//! dropped). Render *errors* (an infeasible outcome asked for a
//! schedule-dependent kind) are not cached — they are cheap to
//! recompute and keyed misses must never mask a later feasible entry
//! under the same digest (impossible by construction, but cheap is
//! cheap).

use crate::cache::SynthesisOutcome;
use crate::digest::SpecDigest;
use ezrt_artifacts::{render, ArtifactKind, RenderError};
use ezrt_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One artifact served from (or through) the rendered-byte tier.
#[derive(Debug, Clone)]
pub struct RenderedArtifact {
    /// The artifact kind these bytes render.
    pub kind: ArtifactKind,
    /// The per-kind MIME type ([`ArtifactKind::content_type`]).
    pub content_type: &'static str,
    /// The rendered bytes, shared with the cache entry (no copy on a
    /// hit). Always valid UTF-8 — every artifact is text.
    pub bytes: Arc<[u8]>,
    /// `true` when the bytes came out of the rendered tier, `false`
    /// when this call ran the render.
    pub cached: bool,
}

/// A point-in-time snapshot of the rendered-tier counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderedStats {
    /// Requests served from a resident rendered entry.
    pub hits: u64,
    /// Requests that ran the render (and, capacity permitting, stored
    /// the bytes).
    pub misses: u64,
    /// Entries evicted under LRU pressure.
    pub evictions: u64,
    /// Rendered entries currently resident.
    pub entries: usize,
    /// Bytes currently resident across all entries.
    pub bytes: u64,
    /// The configured entry bound (0 = rendered caching disabled).
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    bytes: Arc<[u8]>,
    /// Global LRU clock value at the last hit or insert.
    last_used: u64,
}

type Key = (SpecDigest, ArtifactKind);

/// The sharded rendered-byte LRU. See the [module docs](self).
#[derive(Debug)]
pub struct RenderedCache {
    shards: Vec<Mutex<HashMap<Key, Entry>>>,
    shard_mask: u64,
    /// Total entry bound, spread evenly over the shards; zero disables
    /// storing (every request renders).
    capacity: usize,
    per_shard_capacity: usize,
    /// Global LRU clock, bumped on every hit and insert.
    tick: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Resident rendered bytes, maintained on insert/replace/evict.
    /// A gauge, not a counter — it shrinks on evictions.
    bytes: AtomicU64,
}

impl RenderedCache {
    /// A cache bounded to `capacity` rendered entries across `shards`
    /// mutex-guarded shards (rounded up to a power of two, minimum 1).
    /// `capacity == 0` disables storing entirely: every request
    /// re-renders.
    pub fn new(capacity: usize, shards: usize) -> RenderedCache {
        let shards = shards.max(1).next_power_of_two();
        RenderedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_mask: shards as u64 - 1,
            capacity,
            per_shard_capacity: capacity.div_ceil(shards),
            tick: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            bytes: AtomicU64::new(0),
        }
    }

    /// Registers the rendered tier's counters into `registry`. The
    /// resident entry/byte gauges are scrape-time values taken from
    /// [`stats`](Self::stats) instead.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "ezrt_rendered_hits_total",
            "Artifact requests served from a resident rendered entry.",
            &self.hits,
        );
        registry.register_counter(
            "ezrt_rendered_misses_total",
            "Artifact requests that ran the render.",
            &self.misses,
        );
        registry.register_counter(
            "ezrt_rendered_evictions_total",
            "Rendered entries evicted under LRU pressure.",
            &self.evictions,
        );
    }

    fn shard(&self, key: &Key) -> &Mutex<HashMap<Key, Entry>> {
        // Route on the digest's high bits (like the result cache),
        // folded with the kind so one digest's artifacts spread out.
        let mut route = key.0.fnv64() >> 16;
        route ^= kind_tag(key.1);
        &self.shards[(route & self.shard_mask) as usize]
    }

    /// Serves `kind` of `outcome` from the rendered tier, rendering and
    /// storing on a miss (never storing a non-cacheable outcome's bytes).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`RenderError`] when the kind needs a
    /// feasible schedule the outcome does not have (never cached).
    pub fn get_or_render(
        &self,
        outcome: &SynthesisOutcome,
        kind: ArtifactKind,
    ) -> Result<RenderedArtifact, RenderError> {
        let key = (outcome.digest, kind);
        // A load-dependent outcome is never cached, nor are its bytes.
        let cached = self.capacity > 0 && outcome.cacheable;
        if cached {
            let mut shard = self.shard(&key).lock().expect("rendered shard poisoned");
            if let Some(entry) = shard.get_mut(&key) {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.inc();
                return Ok(RenderedArtifact {
                    kind,
                    content_type: kind.content_type(),
                    bytes: Arc::clone(&entry.bytes),
                    cached: true,
                });
            }
        }
        // Render outside the shard lock: purity makes a racing double
        // render harmless (identical bytes, last insert wins).
        let artifact = render(outcome, kind)?;
        self.misses.inc();
        let bytes: Arc<[u8]> = artifact.text.into_bytes().into();
        if cached {
            self.insert(key, &bytes);
        }
        Ok(RenderedArtifact {
            kind,
            content_type: artifact.content_type,
            bytes,
            cached: false,
        })
    }

    fn insert(&self, key: Key, bytes: &Arc<[u8]>) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("rendered shard poisoned");
        if let Some(previous) = shard.insert(
            key,
            Entry {
                bytes: Arc::clone(bytes),
                last_used: tick,
            },
        ) {
            // A racing render of the same key: replace, keep the gauge
            // honest (the two byte strings are identical by purity).
            self.bytes
                .fetch_sub(previous.bytes.len() as u64, Ordering::Relaxed);
        }
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        while shard.len() > self.per_shard_capacity {
            let oldest = shard
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
                .expect("non-empty over-capacity shard");
            if let Some(evicted) = shard.remove(&oldest) {
                self.bytes
                    .fetch_sub(evicted.bytes.len() as u64, Ordering::Relaxed);
            }
            self.evictions.inc();
        }
    }

    /// A consistent-enough snapshot of the counters (the entry count
    /// sums over shards without a global lock).
    pub fn stats(&self) -> RenderedStats {
        let mut entries = 0;
        for shard in &self.shards {
            entries += shard.lock().expect("rendered shard poisoned").len();
        }
        RenderedStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
            bytes: self.bytes.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }
}

/// A small deterministic per-kind routing tag (not a content hash —
/// only shard placement depends on it).
fn kind_tag(kind: ArtifactKind) -> u64 {
    match kind {
        ArtifactKind::ReportJson => 1,
        ArtifactKind::Table => 2,
        ArtifactKind::Codegen(target) => 3 + target.name().len() as u64,
        ArtifactKind::Gantt => 11,
        ArtifactKind::Pnml => 13,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::compute_outcome;
    use crate::digest::project_digest;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;
    use ezrt_spec::SpecBuilder;

    fn feasible_outcome() -> SynthesisOutcome {
        let project = Project::new(small_control());
        compute_outcome(&project, project_digest(&project))
    }

    #[test]
    fn second_request_shares_the_rendered_bytes() {
        let cache = RenderedCache::new(16, 2);
        let outcome = feasible_outcome();
        let first = cache
            .get_or_render(&outcome, ArtifactKind::Table)
            .expect("renders");
        assert!(!first.cached);
        let second = cache
            .get_or_render(&outcome, ArtifactKind::Table)
            .expect("renders");
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.bytes, &second.bytes));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, first.bytes.len() as u64);
    }

    #[test]
    fn kinds_are_cached_independently_and_match_direct_renders() {
        let cache = RenderedCache::new(16, 4);
        let outcome = feasible_outcome();
        for kind in ArtifactKind::ALL {
            let served = cache.get_or_render(&outcome, kind).expect("renders");
            let direct = render(&outcome, kind).expect("renders");
            assert_eq!(&*served.bytes, direct.text.as_bytes(), "{kind}");
            assert_eq!(served.content_type, kind.content_type(), "{kind}");
            assert!(cache.get_or_render(&outcome, kind).expect("hit").cached);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, ArtifactKind::ALL.len());
        assert_eq!(stats.misses, ArtifactKind::ALL.len() as u64);
    }

    #[test]
    fn lru_pressure_evicts_and_keeps_the_byte_gauge_honest() {
        // One shard, two entries: deterministic LRU order.
        let cache = RenderedCache::new(2, 1);
        let outcome = feasible_outcome();
        cache
            .get_or_render(&outcome, ArtifactKind::Table)
            .expect("renders");
        cache
            .get_or_render(&outcome, ArtifactKind::Gantt)
            .expect("renders");
        // Touch table so gantt is the LRU victim.
        cache
            .get_or_render(&outcome, ArtifactKind::Table)
            .expect("hit");
        cache
            .get_or_render(&outcome, ArtifactKind::Pnml)
            .expect("renders");
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        let table = cache
            .get_or_render(&outcome, ArtifactKind::Table)
            .expect("still resident");
        assert!(table.cached, "the touched entry survived");
        let gantt = cache
            .get_or_render(&outcome, ArtifactKind::Gantt)
            .expect("re-renders");
        assert!(!gantt.cached, "the LRU entry was evicted");
        // The gauge equals the sum of the resident entries exactly.
        let resident: u64 = cache
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap()
                    .values()
                    .map(|entry| entry.bytes.len() as u64)
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(cache.stats().bytes, resident);
    }

    #[test]
    fn zero_capacity_renders_every_time_and_stores_nothing() {
        let cache = RenderedCache::new(0, 1);
        let outcome = feasible_outcome();
        for _ in 0..2 {
            let served = cache
                .get_or_render(&outcome, ArtifactKind::Table)
                .expect("renders");
            assert!(!served.cached);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (0, 2, 0));
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn render_errors_are_propagated_and_never_cached() {
        let cache = RenderedCache::new(16, 1);
        let overload = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let project = Project::new(overload);
        let outcome = compute_outcome(&project, project_digest(&project));
        for _ in 0..2 {
            let error = cache
                .get_or_render(&outcome, ArtifactKind::Table)
                .expect_err("infeasible");
            assert!(error.to_string().contains("no feasible schedule"));
        }
        // The report still renders (and caches) for infeasible outcomes.
        let report = cache
            .get_or_render(&outcome, ArtifactKind::ReportJson)
            .expect("report renders");
        assert!(!report.cached);
        assert!(
            cache
                .get_or_render(&outcome, ArtifactKind::ReportJson)
                .expect("hit")
                .cached
        );
        assert_eq!(cache.stats().entries, 1);
    }
}
