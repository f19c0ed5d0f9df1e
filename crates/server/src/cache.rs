//! The content-addressed result cache: digest → `Arc<SynthesisOutcome>`
//! behind N mutex-guarded shards keyed by digest, with **singleflight**
//! in-flight coalescing, size-bounded LRU eviction, and an optional
//! **disk tier** ([`DiskTier`]) entries spill to and warm-start from.
//!
//! Singleflight: when several requests arrive for the same digest while
//! no entry exists, exactly one of them runs the synthesis; the others
//! block on the in-flight slot and receive the same `Arc` when it
//! completes. A completed entry is served without blocking anyone.
//!
//! Tiering: a request that misses memory consults the disk tier (when
//! configured) before synthesizing — still under the singleflight slot,
//! so concurrent requests share one disk load exactly as they would
//! share one synthesis. A fresh synthesis is persisted to disk after it
//! completes, so a restarted process (or another process sharing the
//! directory) finds it. An outcome whose verdict depends on load (a
//! time-budget abort, see [`SynthesisOutcome::cacheable`]) is handed to
//! its flight's waiters and enters no tier.
//!
//! Reporting: a request served from a *completed* memory entry is a
//! `hit`; one revived from the disk tier is a `disk`; a request that
//! started **or waited on** an in-flight synthesis is a `miss` (its
//! latency included the search). Joiners always report the flight
//! owner's resolution (`miss` for a synthesis, `disk` for a revival),
//! so all concurrent first-requests for one digest produce
//! byte-identical responses.

use crate::digest::SpecDigest;
use crate::disk::{DiskStats, DiskTier};
use crate::rendered::{RenderedArtifact, RenderedCache, RenderedStats};
use ezrt_artifacts::{ArtifactKind, RenderError};
use ezrt_obs::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

pub use ezrt_artifacts::outcome::{compute_outcome, compute_outcome_incremental, SynthesisOutcome};

/// How a [`ResultCache::get_or_compute`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from a completed in-memory cache entry.
    Hit,
    /// Revived from the disk tier (no synthesis ran).
    Disk,
    /// This call ran the synthesis.
    Miss,
    /// This call waited on another call's in-flight synthesis.
    Joined,
}

impl Lookup {
    /// The `cache` field value: `"hit"` for completed memory entries,
    /// `"disk"` for entries revived from the disk tier (whether this
    /// call ran the revival or joined it), `"miss"` whenever the
    /// request's latency included a synthesis ([`Miss`](Self::Miss)
    /// and [`Joined`](Self::Joined) alike — so concurrent identical
    /// requests all serve byte-identical bodies).
    pub fn as_str(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Disk => "disk",
            Lookup::Miss | Lookup::Joined => "miss",
        }
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a completed memory entry.
    pub hits: u64,
    /// Requests revived from the disk tier without a synthesis.
    pub disk_hits: u64,
    /// Synthesis runs started (one per singleflight group).
    pub misses: u64,
    /// Requests that waited on another request's in-flight synthesis.
    pub joined: u64,
    /// Entries evicted under LRU pressure.
    pub evictions: u64,
    /// Completed entries currently resident in memory.
    pub entries: usize,
    /// Syntheses currently in flight.
    pub inflight: usize,
    /// The configured entry bound (0 = memory caching disabled).
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    outcome: Arc<SynthesisOutcome>,
    /// Global LRU clock value at the last hit or insert.
    last_used: u64,
}

/// The in-flight slot concurrent requests rendezvous on.
#[derive(Debug)]
struct Inflight {
    slot: Mutex<InflightSlot>,
    completed: Condvar,
}

#[derive(Debug)]
enum InflightSlot {
    Pending,
    /// The finished outcome plus how the owner resolved it
    /// ([`Lookup::Miss`] or [`Lookup::Disk`]) — joiners report the same
    /// resolution so all coalesced responses carry one `cache` value.
    Done(Arc<SynthesisOutcome>, Lookup),
    /// The computing call panicked; waiters retry from scratch.
    Abandoned,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<SpecDigest, Entry>,
    inflight: HashMap<SpecDigest, Arc<Inflight>>,
}

/// The most recent full digests per structure a structure can map to.
const ANCESTORS_PER_STRUCTURE: usize = 8;

/// The most distinct structures the ancestor index retains.
const ANCESTOR_STRUCTURES: usize = 256;

/// The nearest-ancestor index: *structure* digest (task set + relation
/// shape, timing elided) → the most recent full digests seen with that
/// structure. On a full-digest miss the server asks this index for
/// prior outcomes of the same structure and warm-starts synthesis from
/// the closest one (fewest changed tasks). Bounded on both axes —
/// structures are dropped oldest-first, digests per structure
/// newest-first-capped — and memory-only: warm starts are a latency
/// optimization, so the index is rebuilt organically after a restart.
#[derive(Debug, Default)]
struct AncestorIndex {
    by_structure: HashMap<SpecDigest, VecDeque<SpecDigest>>,
    /// Structure insertion order, oldest first, for bounding.
    order: VecDeque<SpecDigest>,
}

impl AncestorIndex {
    fn note(&mut self, structure: SpecDigest, digest: SpecDigest) {
        let recents = match self.by_structure.get_mut(&structure) {
            Some(recents) => recents,
            None => {
                while self.order.len() >= ANCESTOR_STRUCTURES {
                    if let Some(oldest) = self.order.pop_front() {
                        self.by_structure.remove(&oldest);
                    }
                }
                self.order.push_back(structure);
                self.by_structure.entry(structure).or_default()
            }
        };
        recents.retain(|&d| d != digest);
        recents.push_front(digest);
        recents.truncate(ANCESTORS_PER_STRUCTURE);
    }

    fn candidates(&self, structure: &SpecDigest) -> Vec<SpecDigest> {
        self.by_structure
            .get(structure)
            .map(|recents| recents.iter().copied().collect())
            .unwrap_or_default()
    }
}

/// The sharded singleflight LRU cache with an optional disk tier. See
/// the [module docs](self).
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    /// Total completed-entry bound, spread evenly over the shards;
    /// zero disables storing (singleflight coalescing still applies).
    capacity: usize,
    per_shard_capacity: usize,
    /// The persistent tier, when configured.
    disk: Option<DiskTier>,
    /// The rendered-byte tier: `(digest, kind) → Arc<[u8]>`, so a hot
    /// artifact hit is an `Arc` clone instead of a re-render.
    rendered: RenderedCache,
    /// The nearest-ancestor warm-start index (see [`AncestorIndex`]).
    ancestors: Mutex<AncestorIndex>,
    /// Global LRU clock, bumped on every hit and insert.
    tick: AtomicU64,
    // Per-instance observability cells (`ezrt_obs::Counter` is the
    // same relaxed `AtomicU64` the hand-rolled counters were, behind a
    // cloneable handle a `Registry` can render).
    hits: Counter,
    disk_hits: Counter,
    misses: Counter,
    joined: Counter,
    evictions: Counter,
}

impl ResultCache {
    /// A memory-only cache bounded to `capacity` completed entries
    /// across `shards` mutex-guarded shards (rounded up to a power of
    /// two, minimum 1). `capacity == 0` disables storing entirely:
    /// every request misses, but concurrent identical requests still
    /// coalesce onto one in-flight synthesis.
    pub fn new(capacity: usize, shards: usize) -> ResultCache {
        ResultCache::with_disk(capacity, shards, None)
    }

    /// Same, with an optional disk tier misses consult (and completed
    /// syntheses persist to) — `--cache-dir`. The disk tier works even
    /// with `capacity == 0`: nothing is retained in memory, but every
    /// request after the first is a disk revival instead of a search.
    pub fn with_disk(capacity: usize, shards: usize, disk: Option<DiskTier>) -> ResultCache {
        let shards = shards.max(1).next_power_of_two();
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: shards as u64 - 1,
            capacity,
            per_shard_capacity: capacity.div_ceil(shards),
            disk,
            // Several artifact kinds render per outcome, so the
            // rendered tier holds a multiple of the outcome bound;
            // disabling the outcome tier disables this one too.
            rendered: RenderedCache::new(capacity.saturating_mul(4), shards),
            ancestors: Mutex::new(AncestorIndex::default()),
            tick: AtomicU64::new(0),
            hits: Counter::new(),
            disk_hits: Counter::new(),
            misses: Counter::new(),
            joined: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Registers this cache's counters — all three tiers — into
    /// `registry` for Prometheus exposition. The cells stay owned by
    /// the cache (per-instance counts), the registry just renders them.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "ezrt_cache_hits_total",
            "Requests served from a completed in-memory cache entry.",
            &self.hits,
        );
        registry.register_counter(
            "ezrt_cache_disk_hits_total",
            "Requests revived from the disk tier without a synthesis.",
            &self.disk_hits,
        );
        registry.register_counter(
            "ezrt_cache_misses_total",
            "Synthesis runs started (one per singleflight group).",
            &self.misses,
        );
        registry.register_counter(
            "ezrt_cache_joined_total",
            "Requests that waited on another request's in-flight synthesis.",
            &self.joined,
        );
        registry.register_counter(
            "ezrt_cache_evictions_total",
            "Outcome entries evicted under LRU pressure.",
            &self.evictions,
        );
        self.rendered.register_metrics(registry);
        if let Some(disk) = &self.disk {
            disk.register_metrics(registry);
        }
    }

    /// The disk tier's counters, when one is configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// The rendered-byte tier's counters.
    pub fn rendered_stats(&self) -> RenderedStats {
        self.rendered.stats()
    }

    /// Serves `kind` of `outcome` through the rendered-byte tier: a
    /// resident `(digest, kind)` entry is an `Arc` clone, a miss runs
    /// `ezrt_artifacts::render` once and memoizes the bytes. Every
    /// artifact surface — the HTTP endpoints, the CLI artifact
    /// commands, batch — funnels through here, so hot artifact bytes
    /// are built once per process no matter which surface asks.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`RenderError`] when the kind requires a
    /// feasible schedule and the outcome has none.
    pub fn render_artifact(
        &self,
        outcome: &SynthesisOutcome,
        kind: ArtifactKind,
    ) -> Result<RenderedArtifact, RenderError> {
        self.rendered.get_or_render(outcome, kind)
    }

    fn shard(&self, digest: &SpecDigest) -> &Mutex<Shard> {
        // Route on the high bits of the 64-bit half, like the arena.
        &self.shards[((digest.fnv64() >> 48) & self.shard_mask) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks `digest` up, running `compute` under singleflight on a
    /// miss: of all concurrent callers for one absent digest, exactly
    /// one executes `compute` (or revives the disk entry); the rest
    /// block and share its `Arc`.
    ///
    /// # Panics
    ///
    /// Propagates a panic out of `compute` to its own caller only;
    /// waiting callers observe the abandoned slot and retry (one of
    /// them becomes the next computer).
    pub fn get_or_compute<F>(
        &self,
        digest: SpecDigest,
        compute: F,
    ) -> (Arc<SynthesisOutcome>, Lookup)
    where
        F: FnOnce() -> SynthesisOutcome,
    {
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut shard = self.shard(&digest).lock().expect("cache shard poisoned");
                if let Some(entry) = shard.entries.get_mut(&digest) {
                    entry.last_used = self.next_tick();
                    self.hits.inc();
                    return (Arc::clone(&entry.outcome), Lookup::Hit);
                }
                match shard.inflight.get(&digest) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Inflight {
                            slot: Mutex::new(InflightSlot::Pending),
                            completed: Condvar::new(),
                        });
                        shard.inflight.insert(digest, Arc::clone(&flight));
                        drop(shard);
                        // The disk tier is consulted *inside* the
                        // guarded flight, so concurrent requests share
                        // one load exactly as they would share one
                        // synthesis — and a panic anywhere in the
                        // decode/revival path abandons the slot instead
                        // of wedging the digest forever.
                        let produce = compute.take().expect("compute consumed once");
                        let (outcome, lookup) = self.run_compute(digest, &flight, || {
                            if let Some(revived) = self.disk.as_ref().and_then(|d| d.load(&digest))
                            {
                                self.disk_hits.inc();
                                return (revived, Lookup::Disk);
                            }
                            self.misses.inc();
                            (produce(), Lookup::Miss)
                        });
                        if lookup == Lookup::Miss && outcome.cacheable {
                            if let Some(disk) = &self.disk {
                                disk.store(&outcome);
                            }
                        }
                        return (outcome, lookup);
                    }
                }
            };
            // Wait for the in-flight synthesis outside any shard lock.
            let mut slot = flight.slot.lock().expect("inflight slot poisoned");
            loop {
                match &*slot {
                    InflightSlot::Pending => {
                        slot = flight.completed.wait(slot).expect("inflight slot poisoned");
                    }
                    InflightSlot::Done(outcome, resolved) => {
                        self.joined.inc();
                        // Report the owner's resolution so every
                        // coalesced response is byte-identical: a
                        // joined synthesis is a "miss" (the latency
                        // included the search), a joined disk revival
                        // is a "disk".
                        let lookup = match resolved {
                            Lookup::Disk => Lookup::Disk,
                            _ => Lookup::Joined,
                        };
                        return (Arc::clone(outcome), lookup);
                    }
                    InflightSlot::Abandoned => break, // retry from the top
                }
            }
        }
    }

    /// Records that `digest` (a full spec digest with a completed
    /// outcome) was seen with `structure`, making it a warm-start
    /// candidate for future same-structure misses. Most recent first;
    /// bounded on both axes.
    pub fn note_ancestor(&self, structure: SpecDigest, digest: SpecDigest) {
        self.ancestors
            .lock()
            .expect("ancestor index poisoned")
            .note(structure, digest);
    }

    /// The recent full digests recorded for `structure`, most recent
    /// first — the warm-start candidates a miss for a same-structure
    /// spec may seed from. Empty when the structure is unknown.
    pub fn ancestor_candidates(&self, structure: &SpecDigest) -> Vec<SpecDigest> {
        self.ancestors
            .lock()
            .expect("ancestor index poisoned")
            .candidates(structure)
    }

    /// Read-only lookup for the artifact endpoints: a completed memory
    /// entry, else a disk revival (published into memory), else `None`.
    /// Never joins an in-flight synthesis and never computes — an
    /// in-flight digest with no disk entry reads as absent.
    pub fn lookup(&self, digest: SpecDigest) -> Option<(Arc<SynthesisOutcome>, Lookup)> {
        {
            let mut shard = self.shard(&digest).lock().expect("cache shard poisoned");
            if let Some(entry) = shard.entries.get_mut(&digest) {
                entry.last_used = self.next_tick();
                self.hits.inc();
                return Some((Arc::clone(&entry.outcome), Lookup::Hit));
            }
        }
        let revived = self.disk.as_ref().and_then(|d| d.load(&digest))?;
        self.disk_hits.inc();
        let outcome = Arc::new(revived);
        self.insert_completed(digest, &outcome);
        Some((outcome, Lookup::Disk))
    }

    /// Runs `produce` (disk revival or synthesis) for an in-flight slot
    /// this call owns, publishes the result with its resolution, and
    /// cleans the slot up even if `produce` panics. The flight's waiters
    /// receive the result even when it is not cacheable; only the memory
    /// tier skips it.
    fn run_compute<F>(
        &self,
        digest: SpecDigest,
        flight: &Arc<Inflight>,
        produce: F,
    ) -> (Arc<SynthesisOutcome>, Lookup)
    where
        F: FnOnce() -> (SynthesisOutcome, Lookup),
    {
        /// Unwind guard: if `compute` panics, mark the slot abandoned
        /// and wake the waiters so they retry instead of hanging.
        struct Abandon<'a> {
            cache: &'a ResultCache,
            digest: SpecDigest,
            flight: &'a Arc<Inflight>,
            armed: bool,
        }
        impl Drop for Abandon<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut shard = self
                    .cache
                    .shard(&self.digest)
                    .lock()
                    .expect("cache shard poisoned");
                shard.inflight.remove(&self.digest);
                drop(shard);
                let mut slot = self.flight.slot.lock().expect("inflight slot poisoned");
                *slot = InflightSlot::Abandoned;
                self.flight.completed.notify_all();
            }
        }

        let mut guard = Abandon {
            cache: self,
            digest,
            flight,
            armed: true,
        };
        let (outcome, lookup) = produce();
        let outcome = Arc::new(outcome);
        guard.armed = false;

        self.insert_completed(digest, &outcome);
        let mut shard = self.shard(&digest).lock().expect("cache shard poisoned");
        shard.inflight.remove(&digest);
        drop(shard);

        let mut slot = flight.slot.lock().expect("inflight slot poisoned");
        *slot = InflightSlot::Done(Arc::clone(&outcome), lookup);
        flight.completed.notify_all();
        (outcome, lookup)
    }

    /// Inserts a completed outcome into its memory shard (when memory
    /// caching is enabled and the outcome is cacheable), LRU-evicting
    /// over capacity.
    fn insert_completed(&self, digest: SpecDigest, outcome: &Arc<SynthesisOutcome>) {
        if self.capacity == 0 || !outcome.cacheable {
            return;
        }
        let tick = self.next_tick();
        let mut shard = self.shard(&digest).lock().expect("cache shard poisoned");
        shard.entries.insert(
            digest,
            Entry {
                outcome: Arc::clone(outcome),
                last_used: tick,
            },
        );
        while shard.entries.len() > self.per_shard_capacity {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(digest, _)| *digest)
                .expect("non-empty over-capacity shard");
            shard.entries.remove(&oldest);
            self.evictions.inc();
        }
    }

    /// A consistent-enough snapshot of the counters (entry and inflight
    /// counts sum over shards without a global lock).
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut inflight = 0;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries += shard.entries.len();
            inflight += shard.inflight.len();
        }
        CacheStats {
            hits: self.hits.get(),
            disk_hits: self.disk_hits.get(),
            misses: self.misses.get(),
            joined: self.joined.get(),
            evictions: self.evictions.get(),
            entries,
            inflight,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn digest_of(byte: u8) -> SpecDigest {
        SpecDigest::of(&[byte])
    }

    fn stub_outcome(digest: SpecDigest) -> SynthesisOutcome {
        SynthesisOutcome {
            digest,
            feasible: true,
            error: None,
            fields: vec![("feasible", "true".to_owned())],
            stats: ezrt_scheduler::SearchStats::default(),
            cacheable: true,
            replay_ok: Some(true),
            solution: None,
        }
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let cache = ResultCache::new(8, 2);
        let d = digest_of(1);
        let (first, lookup) = cache.get_or_compute(d, || stub_outcome(d));
        assert_eq!(lookup, Lookup::Miss);
        let (second, lookup) = cache.get_or_compute(d, || panic!("must not recompute"));
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(cache.disk_stats(), None);
    }

    #[test]
    fn singleflight_runs_compute_exactly_once() {
        let cache = ResultCache::new(8, 2);
        let d = digest_of(2);
        let runs = AtomicUsize::new(0);
        let threads = 6;
        let barrier = Barrier::new(threads);
        let outcomes: Vec<(u64, Lookup)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (outcome, lookup) = cache.get_or_compute(d, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // other threads must join it.
                            std::thread::sleep(std::time::Duration::from_millis(150));
                            stub_outcome(d)
                        });
                        (Arc::as_ptr(&outcome) as u64, lookup)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one synthesis ran");
        let first_ptr = outcomes[0].0;
        assert!(outcomes.iter().all(|(ptr, _)| *ptr == first_ptr));
        assert_eq!(
            outcomes.iter().filter(|(_, l)| *l == Lookup::Miss).count(),
            1
        );
        assert!(outcomes
            .iter()
            .all(|(_, l)| matches!(l, Lookup::Miss | Lookup::Joined)));
        assert!(outcomes.iter().all(|(_, l)| l.as_str() == "miss"));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.joined, threads as u64 - 1);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn load_dependent_outcomes_reach_their_waiters_but_no_tier() {
        let cache = ResultCache::new(8, 1);
        let d = digest_of(3);
        let uncacheable = || SynthesisOutcome {
            cacheable: false,
            ..stub_outcome(d)
        };
        let threads = 3;
        let barrier = Barrier::new(threads);
        let pointers: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (outcome, _) = cache.get_or_compute(d, || {
                            std::thread::sleep(std::time::Duration::from_millis(150));
                            uncacheable()
                        });
                        Arc::as_ptr(&outcome) as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(pointers.iter().all(|ptr| *ptr == pointers[0]));
        let (outcome, lookup) = cache.get_or_compute(d, uncacheable);
        assert_eq!(lookup, Lookup::Miss, "nothing was kept");
        for _ in 0..2 {
            let artifact = cache
                .render_artifact(&outcome, ArtifactKind::ReportJson)
                .expect("renders");
            assert!(!artifact.cached);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 2));
        assert_eq!(cache.rendered_stats().entries, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_digest() {
        // One shard so the LRU order is fully deterministic.
        let cache = ResultCache::new(2, 1);
        let (a, b, c) = (digest_of(10), digest_of(11), digest_of(12));
        cache.get_or_compute(a, || stub_outcome(a));
        cache.get_or_compute(b, || stub_outcome(b));
        // Touch `a` so `b` is now the oldest.
        assert_eq!(cache.get_or_compute(a, || stub_outcome(a)).1, Lookup::Hit);
        cache.get_or_compute(c, || stub_outcome(c)); // evicts b
        assert_eq!(cache.get_or_compute(a, || stub_outcome(a)).1, Lookup::Hit);
        assert_eq!(cache.get_or_compute(b, || stub_outcome(b)).1, Lookup::Miss);
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "b evicted, then a or c: {stats:?}");
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = ResultCache::new(0, 1);
        let d = digest_of(20);
        assert_eq!(cache.get_or_compute(d, || stub_outcome(d)).1, Lookup::Miss);
        assert_eq!(cache.get_or_compute(d, || stub_outcome(d)).1, Lookup::Miss);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (0, 2, 0));
    }

    #[test]
    fn panicking_compute_abandons_the_flight_without_wedging() {
        let cache = ResultCache::new(8, 1);
        let d = digest_of(30);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(d, || panic!("synthesis exploded"));
        }));
        assert!(panicked.is_err());
        // The digest is not wedged: the next call computes normally.
        let (_, lookup) = cache.get_or_compute(d, || stub_outcome(d));
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(cache.stats().inflight, 0);
    }

    #[test]
    fn render_artifact_funnels_through_the_rendered_tier() {
        let cache = ResultCache::new(8, 2);
        let d = digest_of(50);
        let (outcome, _) = cache.get_or_compute(d, || stub_outcome(d));
        let first = cache
            .render_artifact(&outcome, ArtifactKind::ReportJson)
            .expect("report renders");
        assert!(!first.cached);
        let second = cache
            .render_artifact(&outcome, ArtifactKind::ReportJson)
            .expect("report renders");
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.bytes, &second.bytes));
        let rendered = cache.rendered_stats();
        assert_eq!((rendered.hits, rendered.misses), (1, 1));
        assert_eq!(rendered.capacity, 32, "4 kinds-worth per outcome slot");
        // A zero-capacity result cache disables the rendered tier too.
        assert_eq!(ResultCache::new(0, 1).rendered_stats().capacity, 0);
    }

    #[test]
    fn ancestor_index_orders_dedupes_and_bounds() {
        let cache = ResultCache::new(8, 1);
        let structure = digest_of(60);
        assert!(cache.ancestor_candidates(&structure).is_empty());

        // Most recent first, duplicates move to the front.
        cache.note_ancestor(structure, digest_of(61));
        cache.note_ancestor(structure, digest_of(62));
        cache.note_ancestor(structure, digest_of(61));
        assert_eq!(
            cache.ancestor_candidates(&structure),
            vec![digest_of(61), digest_of(62)]
        );

        // Per-structure bound: only the newest ANCESTORS_PER_STRUCTURE.
        for byte in 100..120 {
            cache.note_ancestor(structure, digest_of(byte));
        }
        let candidates = cache.ancestor_candidates(&structure);
        assert_eq!(candidates.len(), ANCESTORS_PER_STRUCTURE);
        assert_eq!(candidates[0], digest_of(119));

        // Structure bound: the oldest structure is dropped.
        for byte in 0..=u8::MAX {
            for high in 0..2u8 {
                cache.note_ancestor(SpecDigest::of(&[high, byte]), digest_of(1));
            }
        }
        assert!(cache.ancestor_candidates(&structure).is_empty());
    }

    #[test]
    fn lookup_serves_memory_entries_and_reads_through_to_nothing() {
        let cache = ResultCache::new(8, 1);
        let d = digest_of(40);
        assert!(cache.lookup(d).is_none(), "absent digest");
        cache.get_or_compute(d, || stub_outcome(d));
        let (outcome, lookup) = cache.lookup(d).expect("resident");
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(outcome.digest, d);
    }
}
