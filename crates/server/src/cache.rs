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
//!
//! Resolving: [`ResultCache::resolve`] is every front end's one path
//! from a project to its outcome. A miss runs the cold or warm-started
//! synthesis its [`Warm`] asks for, and every search it runs is summed
//! into the server-family search counters. Ancestor probes count no hit.
//!
//! Rendered bytes: [`ResultCache::render_artifact`] memoizes each
//! artifact's bytes on the outcome that produced them
//! ([`RenderMemo`](ezrt_artifacts::RenderMemo)), so they leave memory
//! with it and the outcome LRU bounds them too.

use crate::disk::{DiskStats, DiskTier};
use ezrt_artifacts::outcome::SynthesisOutcome;
use ezrt_artifacts::{compute_outcome, compute_outcome_incremental, structure_digest, SpecDigest};
use ezrt_artifacts::{render, ArtifactKind, RenderError};
use ezrt_core::Project;
use ezrt_obs::{Counter, Registry, TableCell};
use ezrt_scheduler::{SearchCounter, SearchStats};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The shard count of the service caches (`ezrt serve`, `ezrt batch`).
pub const SHARDS: usize = 8;

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

ezrt_obs::metric_table! {
    /// A point-in-time snapshot of the cache counters, one field per
    /// metric, in `/v1/stats` order.
    pub struct CacheStats;
    struct CacheCells;
    capacity: usize, Gauge, Some("cache_capacity"), "ezrt_cache_capacity",
        "Configured outcome-entry bound (0 = memory tier disabled).";
    entries: usize, Gauge, Some("cache_entries"), "ezrt_cache_entries",
        "Completed outcomes resident in the memory tier.";
    inflight: usize, Gauge, Some("cache_inflight"), "ezrt_cache_inflight",
        "Syntheses currently in flight.";
    hits: u64, Counter, Some("cache_hits"), "ezrt_cache_hits_total",
        "Requests served from a completed in-memory cache entry.";
    disk_hits: u64, Counter, Some("cache_disk_hits"), "ezrt_cache_disk_hits_total",
        "Requests revived from the disk tier without a synthesis.";
    misses: u64, Counter, Some("cache_misses"), "ezrt_cache_misses_total",
        "Synthesis runs started (one per singleflight group).";
    joined: u64, Counter, Some("cache_joined"), "ezrt_cache_joined_total",
        "Requests that waited on another request's in-flight synthesis.";
    evictions: u64, Counter, Some("cache_evictions"), "ezrt_cache_evictions_total",
        "Outcome entries evicted under LRU pressure.";
    rendered_capacity: usize, Gauge, Some("rendered_capacity"), "ezrt_rendered_capacity",
        "Rendered-entry bound: outcome capacity times distinct kinds (0 = none memoized).";
    rendered_entries: usize, Gauge, Some("rendered_entries"), "ezrt_rendered_entries",
        "Rendered artifacts memoized on resident outcomes.";
    rendered_hits: u64, Counter, Some("rendered_hits"), "ezrt_rendered_hits_total",
        "Artifact requests served from memoized rendered bytes.";
    rendered_misses: u64, Counter, Some("rendered_misses"), "ezrt_rendered_misses_total",
        "Artifact requests that ran the render.";
    rendered_evictions: u64, Counter, Some("rendered_evictions"), "ezrt_rendered_evictions_total",
        "Memoized renderings dropped with their evicted outcomes.";
    rendered_bytes: u64, Gauge, Some("rendered_bytes"), "ezrt_rendered_bytes",
        "Bytes of the rendered artifacts memoized on resident outcomes.";
}

/// The ancestor a [`ResultCache::resolve`] miss warm-starts from.
#[derive(Debug, Clone, Copy)]
pub enum Warm<'a> {
    /// A cold search.
    Cold,
    /// This outcome's schedule, if it has one (sweep points, `--warm-from`).
    From(&'a SynthesisOutcome),
    /// The hinted digest (`?warm=`), else the nearest entry of the
    /// ancestor index, which a feasible result then joins.
    Nearest(Option<SpecDigest>),
}

/// A [`ResultCache::resolve`] answer.
#[derive(Debug)]
pub struct Resolved {
    /// The outcome.
    pub outcome: Arc<SynthesisOutcome>,
    /// How the cache answered.
    pub lookup: Lookup,
    /// Microseconds this call spent choosing a [`Warm::Nearest`] ancestor.
    pub warm_micros: Option<u64>,
    /// Microseconds this call spent searching.
    pub search_micros: Option<u64>,
}

/// One artifact served by [`ResultCache::render_artifact`].
#[derive(Debug, Clone)]
pub struct RenderedArtifact {
    /// The per-kind MIME type ([`ArtifactKind::content_type`]).
    pub content_type: &'static str,
    /// The rendered bytes, shared with the outcome's memo (no copy on
    /// a hit). Always valid UTF-8 — every artifact is text.
    pub bytes: Arc<[u8]>,
    /// `true` when the bytes were memoized, `false` when this call ran
    /// the render.
    pub cached: bool,
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
    /// The nearest-ancestor warm-start index (see [`AncestorIndex`]).
    ancestors: Mutex<AncestorIndex>,
    /// Global LRU clock, bumped on every hit and insert.
    tick: AtomicU64,
    /// The counters and gauges of [`CacheStats`].
    cells: CacheCells,
    /// One cell per [`SearchStats::COUNTERS`] entry with a server
    /// family, summed over the searches `resolve` ran.
    search: Vec<(&'static SearchCounter, &'static str, Counter)>,
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
            ancestors: Mutex::new(AncestorIndex::default()),
            tick: AtomicU64::new(0),
            cells: CacheCells::default(),
            search: SearchStats::COUNTERS
                .iter()
                .filter_map(|counter| Some((counter, counter.server_family?, Counter::new())))
                .collect(),
        }
    }

    /// Registers this cache's metrics, the disk tier's and the search
    /// counters included, in `registry` for Prometheus exposition. The
    /// cells stay owned by the cache; the registry just renders them.
    pub fn register_metrics(&self, registry: &Registry) {
        self.cells.register(registry);
        for (counter, family, cell) in &self.search {
            cell.register(registry, family, counter.help);
        }
        if let Some(disk) = &self.disk {
            disk.register_metrics(registry);
        }
    }

    /// The `(/v1/stats key, total)` of every server-family search counter.
    pub fn search_totals(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.search
            .iter()
            .map(|(counter, _, cell)| (counter.field, cell.get()))
    }

    /// The disk tier's counters, when one is configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Serves `kind` of `outcome`: bytes memoized on the outcome are an
    /// `Arc` clone, otherwise `ezrt_artifacts::render` runs and its
    /// bytes are memoized. The HTTP artifact routes and the CLI
    /// artifact commands render through here.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`RenderError`] when the kind requires a
    /// feasible schedule and the outcome has none (never memoized).
    pub fn render_artifact(
        &self,
        outcome: &SynthesisOutcome,
        kind: ArtifactKind,
    ) -> Result<RenderedArtifact, RenderError> {
        let content_type = kind.content_type();
        if let Some(bytes) = outcome.rendered.get(kind) {
            self.cells.rendered_hits.inc();
            let bytes = Arc::clone(bytes);
            return Ok(RenderedArtifact {
                content_type,
                bytes,
                cached: true,
            });
        }
        let bytes: Arc<[u8]> = render(outcome, kind)?.text.into_bytes().into();
        self.cells.rendered_misses.inc();
        // Only an outcome the memory tier may keep memoizes its bytes.
        if self.capacity > 0 && outcome.cacheable {
            outcome.rendered.fill(kind, Arc::clone(&bytes));
        }
        Ok(RenderedArtifact {
            content_type,
            bytes,
            cached: false,
        })
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
                    self.cells.hits.inc();
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
                                self.cells.disk_hits.inc();
                                return (revived, Lookup::Disk);
                            }
                            self.cells.misses.inc();
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
                        self.cells.joined.inc();
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

    /// Resolves `project` (digest `digest`) to its outcome under
    /// singleflight, running the search `warm` asks for on a miss. Only
    /// [`Warm::Nearest`] reads and writes the ancestor index, and it
    /// computes the structure digest only on a miss or disk revival.
    pub fn resolve(&self, project: &Project, digest: SpecDigest, warm: Warm<'_>) -> Resolved {
        let (mut structure, mut warm_micros, mut search_micros) = (None, None, None);
        let (outcome, lookup) = self.get_or_compute(digest, || {
            let nearest;
            let ancestor = match warm {
                Warm::Cold => None,
                Warm::From(ancestor) => Some(ancestor),
                Warm::Nearest(hint) => {
                    let started = Instant::now();
                    let shape = *structure.insert(structure_digest(project));
                    nearest = self.nearest_ancestor(project, digest, shape, hint);
                    warm_micros = Some(started.elapsed().as_micros() as u64);
                    nearest.as_deref()
                }
            };
            let started = Instant::now();
            let outcome = match ancestor {
                Some(ancestor) => compute_outcome_incremental(project, digest, ancestor),
                None => compute_outcome(project, digest),
            };
            search_micros = Some(started.elapsed().as_micros() as u64);
            outcome
        });
        // Only the flight that ran the search counts it.
        if lookup == Lookup::Miss {
            for (counter, _, cell) in &self.search {
                cell.add((counter.get)(&outcome.stats));
            }
        }
        if matches!(warm, Warm::Nearest(_))
            && matches!(lookup, Lookup::Miss | Lookup::Disk)
            && outcome.feasible
        {
            let structure = structure.unwrap_or_else(|| structure_digest(project));
            let mut ancestors = self.ancestors.lock().expect("ancestor index poisoned");
            ancestors.note(structure, digest);
        }
        Resolved {
            outcome,
            lookup,
            warm_micros,
            search_micros,
        }
    }

    /// The ancestor of a [`Warm::Nearest`] miss: the hinted digest when
    /// it names a cached feasible outcome, else, among the feasible
    /// same-structure candidates, the one whose spec differs in the
    /// fewest tasks, ties going to the most recent.
    fn nearest_ancestor(
        &self,
        project: &Project,
        digest: SpecDigest,
        structure: SpecDigest,
        hint: Option<SpecDigest>,
    ) -> Option<Arc<SynthesisOutcome>> {
        if let Some(warm) = hint {
            if warm == digest {
                return None;
            }
            let (outcome, _) = self.find(warm)?;
            return outcome.solution.is_some().then_some(outcome);
        }
        let index = self.ancestors.lock().expect("ancestor index poisoned");
        let candidates = index.candidates(&structure);
        drop(index);
        // Candidates arrive most-recent-first, and `min_by_key` keeps the
        // first of equally-close ancestors.
        candidates
            .into_iter()
            .filter(|&candidate| candidate != digest)
            .filter_map(|candidate| self.find(candidate))
            .filter_map(|(outcome, _)| {
                let changed = project.changed_tasks(outcome.solution.as_ref()?.spec());
                Some((changed.len(), outcome))
            })
            .min_by_key(|(changed, _)| *changed)
            .map(|(_, outcome)| outcome)
    }

    /// Read-only lookup for the artifact endpoints: a completed memory
    /// entry, else a disk revival (published into memory), else `None`.
    /// Never joins an in-flight synthesis and never computes — an
    /// in-flight digest with no disk entry reads as absent.
    pub fn lookup(&self, digest: SpecDigest) -> Option<(Arc<SynthesisOutcome>, Lookup)> {
        let (outcome, lookup) = self.find(digest)?;
        match lookup {
            Lookup::Hit => self.cells.hits.inc(),
            _ => self.cells.disk_hits.inc(),
        }
        Some((outcome, lookup))
    }

    /// [`lookup`](Self::lookup) without counting a request: a completed
    /// memory entry ([`Lookup::Hit`]), else a disk revival published into
    /// memory ([`Lookup::Disk`]).
    fn find(&self, digest: SpecDigest) -> Option<(Arc<SynthesisOutcome>, Lookup)> {
        {
            let mut shard = self.shard(&digest).lock().expect("cache shard poisoned");
            if let Some(entry) = shard.entries.get_mut(&digest) {
                entry.last_used = self.next_tick();
                return Some((Arc::clone(&entry.outcome), Lookup::Hit));
            }
        }
        let revived = self.disk.as_ref().and_then(|d| d.load(&digest))?;
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
    /// over capacity. An evicted outcome's memoized bytes go with it.
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
            if let Some(evicted) = shard.entries.remove(&oldest) {
                let (kinds, _) = evicted.outcome.rendered.footprint();
                self.cells.rendered_evictions.add(kinds as u64);
            }
            self.cells.evictions.inc();
        }
    }

    /// A consistent-enough snapshot of the counters (entry, inflight
    /// and rendered counts sum over shards without a global lock); taking
    /// it shows its gauges on `/v1/metrics`.
    pub fn stats(&self) -> CacheStats {
        self.cells.snapshot(|stats| {
            for shard in &self.shards {
                let shard = shard.lock().expect("cache shard poisoned");
                stats.entries += shard.entries.len();
                stats.inflight += shard.inflight.len();
                for entry in shard.entries.values() {
                    let (kinds, bytes) = entry.outcome.rendered.footprint();
                    stats.rendered_entries += kinds;
                    stats.rendered_bytes += bytes;
                }
            }
            stats.capacity = self.capacity;
            stats.rendered_capacity = self.capacity.saturating_mul(ArtifactKind::COUNT);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezrt_artifacts::{compute_outcome, project_digest};
    use ezrt_codegen::Target;
    use ezrt_core::Project;
    use ezrt_spec::corpus::small_control;
    use ezrt_spec::SpecBuilder;
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
            rendered: Default::default(),
        }
    }

    /// The small-control spec's feasible outcome, through `cache`.
    fn cached_feasible(cache: &ResultCache) -> Arc<SynthesisOutcome> {
        let project = Project::new(small_control());
        let digest = project_digest(&project);
        cache.resolve(&project, digest, Warm::Cold).outcome
    }

    /// The small-control spec with its deadlines scaled to `percent`: a
    /// timing edit, so the structure digest is unchanged.
    fn edited(percent: u32) -> (Project, SpecDigest) {
        let grid = ezrt_spec::sweep::SweepGrid::parse(&format!("deadlines:{percent}"));
        let point = grid.expect("grid parses").points()[0];
        let project = Project::new(point.apply(&small_control()).expect("valid point"));
        let digest = project_digest(&project);
        (project, digest)
    }

    /// The `(/v1/stats key, total)` search counters of `cache`.
    fn totals(cache: &ResultCache) -> HashMap<&'static str, u64> {
        cache.search_totals().collect()
    }

    #[test]
    fn nearest_misses_seed_from_their_ancestor_without_counting_hits() {
        let cache = ResultCache::new(8, 1);
        let (base, base_digest) = edited(100);
        let first = cache.resolve(&base, base_digest, Warm::Nearest(None));
        assert_eq!(first.lookup, Lookup::Miss);
        assert!(first.warm_micros.is_some() && first.search_micros.is_some());
        let (edit, digest) = edited(90);
        let second = cache.resolve(&edit, digest, Warm::Nearest(None));
        assert_eq!(second.lookup, Lookup::Miss);
        assert_eq!(second.outcome.stats.incr_seed_hits, 1, "seeded");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (0, 2, 0));
        let after_edit = totals(&cache);
        assert_eq!(after_edit["incr_seed_hits"], 1);
        let replayed = second.outcome.stats.incr_replayed as u64;
        assert_eq!(after_edit["incr_replayed"], replayed);

        // A repeat is a hit that runs nothing and counts nothing more.
        let again = cache.resolve(&edit, digest, Warm::Nearest(None));
        assert_eq!(again.lookup, Lookup::Hit);
        assert_eq!((again.warm_micros, again.search_micros), (None, None));
        assert_eq!(totals(&cache), after_edit);
    }

    #[test]
    fn a_hint_seeds_and_only_nearest_resolution_uses_the_index() {
        let cache = ResultCache::new(8, 1);
        let (base, base_digest) = edited(100);
        cache.resolve(&base, base_digest, Warm::Cold);
        // A cold result is no ancestor for the index...
        let (edit, digest) = edited(90);
        let unseeded = cache.resolve(&edit, digest, Warm::Nearest(None));
        assert_eq!(unseeded.outcome.stats.incr_seed_hits, 0);
        // ...but a hint names any cached outcome.
        let (hinted, hinted_digest) = edited(95);
        let seeded = cache.resolve(&hinted, hinted_digest, Warm::Nearest(Some(base_digest)));
        assert_eq!(seeded.outcome.stats.incr_seed_hits, 1);
        // A given ancestor seeds without reading or writing the index.
        let (given, given_digest) = edited(85);
        let from = Warm::From(&seeded.outcome);
        let from = cache.resolve(&given, given_digest, from);
        assert_eq!(from.outcome.stats.incr_seed_hits, 1);
        assert_eq!(from.warm_micros, None);
        let structure = ezrt_artifacts::structure_digest(&base);
        let index = cache.ancestors.lock().expect("ancestor index");
        assert_eq!(index.candidates(&structure), vec![hinted_digest, digest]);
        drop(index);
        assert_eq!(cache.stats().hits, 0, "the hint probe is no request");
        assert_eq!(totals(&cache)["incr_seed_hits"], 2);
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
        assert_eq!(cache.stats().rendered_entries, 0);
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
    fn second_request_shares_the_rendered_bytes() {
        let cache = ResultCache::new(8, 2);
        let outcome = cached_feasible(&cache);
        let first = cache
            .render_artifact(&outcome, ArtifactKind::Table)
            .expect("renders");
        assert!(!first.cached);
        let second = cache
            .render_artifact(&outcome, ArtifactKind::Table)
            .expect("renders");
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.bytes, &second.bytes));
        let stats = cache.stats();
        let counts = (stats.rendered_hits, stats.rendered_misses);
        assert_eq!((counts, stats.rendered_entries), ((1, 1), 1));
        assert_eq!(stats.rendered_bytes, first.bytes.len() as u64);
        assert_eq!(stats.rendered_capacity, 8 * ArtifactKind::COUNT);
    }

    #[test]
    fn kinds_are_memoized_independently_and_match_direct_renders() {
        let cache = ResultCache::new(8, 4);
        let outcome = cached_feasible(&cache);
        let kinds = [
            ArtifactKind::ReportJson,
            ArtifactKind::Table,
            ArtifactKind::Gantt,
            ArtifactKind::Pnml,
        ]
        .into_iter()
        .chain(Target::ALL.map(ArtifactKind::Codegen));
        let mut total = 0;
        for kind in kinds {
            let served = cache.render_artifact(&outcome, kind).expect("renders");
            let direct = render(&outcome, kind).expect("renders");
            assert_eq!(&*served.bytes, direct.text.as_bytes(), "{kind}");
            assert!(cache.render_artifact(&outcome, kind).expect("hit").cached);
            total += served.bytes.len() as u64;
        }
        let stats = cache.stats();
        assert_eq!(stats.rendered_entries, ArtifactKind::COUNT);
        assert_eq!(stats.rendered_misses, ArtifactKind::COUNT as u64);
        assert_eq!(stats.rendered_bytes, total);
    }

    #[test]
    fn zero_capacity_renders_every_time_and_memoizes_nothing() {
        let cache = ResultCache::new(0, 1);
        let outcome = cached_feasible(&cache);
        for _ in 0..2 {
            let served = cache
                .render_artifact(&outcome, ArtifactKind::Table)
                .expect("renders");
            assert!(!served.cached);
        }
        assert_eq!(outcome.rendered.footprint(), (0, 0));
        let stats = cache.stats();
        let counts = (stats.rendered_hits, stats.rendered_misses);
        assert_eq!((counts, stats.rendered_entries), ((0, 2), 0));
        assert_eq!((stats.rendered_bytes, stats.rendered_capacity), (0, 0));
    }

    #[test]
    fn render_errors_are_propagated_and_never_memoized() {
        let cache = ResultCache::new(8, 1);
        let overload = SpecBuilder::new("overload")
            .task("x", |t| t.computation(3).deadline(4).period(4))
            .task("y", |t| t.computation(2).deadline(4).period(4))
            .build()
            .unwrap();
        let project = Project::new(overload);
        let digest = project_digest(&project);
        let (outcome, _) = cache.get_or_compute(digest, || compute_outcome(&project, digest));
        for _ in 0..2 {
            let error = cache
                .render_artifact(&outcome, ArtifactKind::Table)
                .expect_err("infeasible");
            assert!(error.to_string().contains("no feasible schedule"));
        }
        // The report still renders (and memoizes) for infeasible outcomes.
        let report = cache
            .render_artifact(&outcome, ArtifactKind::ReportJson)
            .expect("report renders");
        assert!(!report.cached);
        assert!(
            cache
                .render_artifact(&outcome, ArtifactKind::ReportJson)
                .expect("hit")
                .cached
        );
        assert_eq!(cache.stats().rendered_entries, 1);
    }

    #[test]
    fn evicting_an_outcome_drops_its_rendered_bytes() {
        let cache = ResultCache::new(1, 1);
        let outcome = cached_feasible(&cache);
        for kind in [ArtifactKind::Table, ArtifactKind::Gantt] {
            cache.render_artifact(&outcome, kind).expect("renders");
        }
        let before = cache.stats();
        assert_eq!(before.rendered_entries, 2);
        assert_eq!(before.rendered_bytes, outcome.rendered.footprint().1);
        assert!(before.rendered_bytes > 0);
        // A second outcome evicts the first from the one-entry cache.
        let other = digest_of(70);
        cache.get_or_compute(other, || stub_outcome(other));
        let after = cache.stats();
        assert_eq!(after.evictions, 1);
        let rendered = (after.rendered_entries, after.rendered_bytes);
        assert_eq!((rendered, after.rendered_evictions), ((0, 0), 2));
    }

    #[test]
    fn ancestor_index_orders_dedupes_and_bounds() {
        let mut index = AncestorIndex::default();
        let structure = digest_of(60);
        assert!(index.candidates(&structure).is_empty());

        // Most recent first, duplicates move to the front.
        index.note(structure, digest_of(61));
        index.note(structure, digest_of(62));
        index.note(structure, digest_of(61));
        assert_eq!(
            index.candidates(&structure),
            vec![digest_of(61), digest_of(62)]
        );

        // Per-structure bound: only the newest ANCESTORS_PER_STRUCTURE.
        for byte in 100..120 {
            index.note(structure, digest_of(byte));
        }
        let candidates = index.candidates(&structure);
        assert_eq!(candidates.len(), ANCESTORS_PER_STRUCTURE);
        assert_eq!(candidates[0], digest_of(119));

        // Structure bound: the oldest structure is dropped.
        for byte in 0..=u8::MAX {
            for high in 0..2u8 {
                index.note(SpecDigest::of(&[high, byte]), digest_of(1));
            }
        }
        assert!(index.candidates(&structure).is_empty());
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
