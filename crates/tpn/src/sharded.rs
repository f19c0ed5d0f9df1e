//! The concurrent state-interning kernel: a sharded arena.
//!
//! [`StateArena`](crate::StateArena) is single-threaded by construction —
//! one slab, one probe table, `&mut self` interning. Parallel exploration
//! needs the *same* dedup guarantees (a state is stored exactly once, ids
//! are stable, id space stays compact) while many workers intern
//! concurrently. This module provides that as a [`ShardedArena`]: `N`
//! independent slab+table shards keyed by the high bits of the state
//! hash, each behind its own mutex. Two workers interning the same state
//! always race on the same shard, so exactly one of them observes
//! `fresh == true` — the property every parallel explorer's "first visit"
//! logic rests on.
//!
//! [`StateId`]s are assigned from **per-shard id blocks**: each shard
//! claims dense ranges of [`ShardedArena::ID_BLOCK`] consecutive ids from
//! one global atomic cursor and hands them out — under its own lock, with
//! no global synchronization — as it interns fresh states. The previous
//! design appended one entry to a global `RwLock<Vec<u64>>` directory per
//! fresh state, which serialized every interning worker on one write
//! lock; the block scheme touches global state once per `ID_BLOCK` fresh
//! states per shard, so interning throughput keeps scaling past ~8
//! workers. The price is that the id space is no longer perfectly dense:
//! each shard's *current* block may be partially used, leaving at most
//! `shard_count() × (ID_BLOCK − 1)` unissued ids overall (see
//! [`id_upper_bound`](ShardedArena::id_upper_bound)) — a bounded, small
//! slack that id-indexed side tables (the schedulers' atomic dead-set)
//! absorb as a few spare bits.
//!
//! Workers do not share scratch state: each fires into its own successor
//! buffer from the parent's packed words in its own frame (never from the
//! arena), so in the steady state a worker only touches shared memory to
//! intern a successor (one shard lock).
//!
//! # Examples
//!
//! Concurrent interning agrees on ids and reports each distinct state
//! fresh exactly once:
//!
//! ```
//! use ezrt_tpn::{ShardedArena, StateLayout, TimeInterval, TpnBuilder};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
//! let mut b = TpnBuilder::new("tiny");
//! let p = b.place_with_tokens("p", 1);
//! let t = b.transition("t", TimeInterval::exact(1));
//! b.arc_place_to_transition(p, t, 1);
//! let net = b.build()?;
//!
//! let arena = ShardedArena::new(StateLayout::of(&net), 2);
//! let fresh_count = AtomicUsize::new(0);
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         scope.spawn(|| {
//!             let mut state = vec![0u32; arena.layout().words()];
//!             for i in 0..100u32 {
//!                 state[0] = i;
//!                 let (_, fresh) = arena.intern(&state);
//!                 if fresh {
//!                     fresh_count.fetch_add(1, Ordering::Relaxed);
//!                 }
//!             }
//!         });
//!     }
//! });
//! assert_eq!(fresh_count.load(Ordering::Relaxed), 100);
//! assert_eq!(arena.len(), 100);
//! # Ok(())
//! # }
//! ```

use crate::arena::{hash_words, StateId, StateLayout, EMPTY_SLOT};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count configuration shared by every parallel entry point in the
/// workspace: the scheduler's `synthesize_parallel`, the `ezrt` CLI's
/// `--jobs` flag and the benchmark harness all consume this one type, so
/// a thread-count choice travels unchanged across layers.
///
/// `jobs == 1` (the default) means strictly sequential execution through
/// the exact single-threaded code paths — parallel entry points delegate,
/// so `Parallelism::default()` is byte-identical to not opting in at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// Strictly sequential execution (one worker).
    pub const SEQUENTIAL: Parallelism = Parallelism { jobs: 1 };

    /// `jobs` workers; zero is clamped to one.
    pub fn new(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// The configured worker count (always ≥ 1).
    pub fn jobs(self) -> usize {
        self.jobs
    }

    /// Whether this configuration runs the sequential code path.
    pub fn is_sequential(self) -> bool {
        self.jobs <= 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SEQUENTIAL
    }
}

/// One shard: a private slab + open-addressing table, exactly the
/// [`StateArena`](crate::StateArena) structure, holding the subset of
/// states whose hash routes here.
#[derive(Debug)]
struct Shard {
    /// Packed states local to this shard, back to back.
    slab: Vec<u32>,
    /// Hash of each local state, for probe short-circuiting.
    hashes: Vec<u64>,
    /// The global [`StateId`] of each local state.
    globals: Vec<u32>,
    /// Open-addressing table of *local* indices; `EMPTY_SLOT` is free.
    table: Vec<u32>,
    mask: usize,
    /// Next global id this shard may assign out of its current id block.
    /// Equal to `block_end` when no block is held (including initially).
    block_next: u32,
    /// One past the last id of the shard's current block.
    block_end: u32,
}

impl Shard {
    fn new() -> Self {
        let capacity = 256;
        Shard {
            slab: Vec::new(),
            hashes: Vec::new(),
            globals: Vec::new(),
            table: vec![EMPTY_SLOT; capacity],
            mask: capacity - 1,
            block_next: 0,
            block_end: 0,
        }
    }

    fn grow(&mut self) {
        let capacity = self.table.len() * 2;
        let mask = capacity - 1;
        let mut table = vec![EMPTY_SLOT; capacity];
        for (local, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = local as u32;
        }
        self.table = table;
        self.mask = mask;
    }

    fn resident_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<u32>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.globals.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

/// Shard routing uses the state hash's bits from here up; in-shard
/// probing uses the low bits, so the two decisions stay independent.
const SHARD_SHIFT: u32 = 48;

/// A concurrently internable state arena: `N` independent
/// slab-plus-probe-table shards keyed by state hash, handing out stable
/// [`StateId`]s from per-shard id blocks.
///
/// Interning takes one shard mutex (hash-routed, so contention spreads
/// across shards). Fresh states receive the next id of the shard's
/// current **id block** — a dense range of [`ID_BLOCK`](Self::ID_BLOCK)
/// ids claimed from one global atomic cursor, so the global directory
/// traffic of the predecessor design (one `RwLock` write per fresh state)
/// is amortized down to one cursor bump per `ID_BLOCK` fresh states per
/// shard. Duplicate hits — the common case in saturating explorations —
/// touch nothing but the shard.
///
/// Ids are stable and unique, and the id space is *compact* rather than
/// perfectly dense: every shard's current block may be partially used, so
/// at most `shard_count() × (ID_BLOCK − 1)` ids below
/// [`id_upper_bound`](Self::id_upper_bound) are never issued. Id-indexed
/// side tables should size by `id_upper_bound`, not [`len`](Self::len).
///
/// Unlike [`StateArena`](crate::StateArena), the arena never lends a
/// state back: states live behind shard locks, so workers keep the
/// packed words of the states they expand themselves.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{ShardedArena, StateLayout, TimeInterval, TpnBuilder};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("tiny");
/// let p = b.place_with_tokens("p", 1);
/// let t = b.transition("t", TimeInterval::exact(1));
/// b.arc_place_to_transition(p, t, 1);
/// let net = b.build()?;
///
/// let arena = ShardedArena::new(StateLayout::of(&net), 4);
/// let mut packed = vec![0u32; arena.layout().words()];
/// net.write_initial_packed(&mut packed);
/// let (id, fresh) = arena.intern(&packed);
/// assert!(fresh);
/// assert_eq!(arena.intern(&packed), (id, false), "re-interning dedups");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedArena {
    layout: StateLayout,
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    /// The next unclaimed block index; `fetch_add` is the only global
    /// synchronization on the fresh-state path, once per `ID_BLOCK`
    /// fresh states per shard.
    next_block: AtomicUsize,
    /// Count of distinct interned states (not the id-space size; see
    /// [`id_upper_bound`](Self::id_upper_bound)).
    len: AtomicUsize,
}

impl ShardedArena {
    /// Ids per block: the granularity at which shards claim dense id
    /// ranges from the global cursor. Also the divisor of the
    /// id-space slack bound `shard_count() × (ID_BLOCK − 1)`.
    pub const ID_BLOCK: usize = 64;

    /// An empty arena with a shard count sized for `workers` concurrent
    /// interners (shards are over-provisioned 4× and rounded to a power of
    /// two so hash routing is a mask).
    pub fn new(layout: StateLayout, workers: usize) -> Self {
        let shards = (workers.max(1) * 4).next_power_of_two().min(256);
        ShardedArena {
            layout,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: shards as u64 - 1,
            next_block: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// The layout states in this arena use.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// Number of shards the hash space is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct states interned so far. This counts *states*,
    /// not ids: because ids are block-allocated, some ids below
    /// [`id_upper_bound`](Self::id_upper_bound) may never be issued.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest [`StateId`] index this arena can have issued
    /// so far: every claimed block counted in full. Id-indexed side
    /// tables (dead-set bitvectors, depth maps) should size by this; the
    /// slack over [`len`](Self::len) is bounded by
    /// `shard_count() × (ID_BLOCK − 1)` — one partial block per shard.
    pub fn id_upper_bound(&self) -> usize {
        self.next_block.load(Ordering::Acquire) * Self::ID_BLOCK
    }

    /// Interns `state`, returning its id and whether it was freshly
    /// inserted. When several workers intern the same state concurrently,
    /// they all receive the same id and exactly one receives
    /// `fresh == true`.
    ///
    /// Fresh ids come from the owning shard's current id block; a new
    /// block is claimed from the global cursor only when the current one
    /// is exhausted, so in the steady state this takes exactly one shard
    /// lock and no global synchronization beyond one `fetch_add` on the
    /// state counter.
    ///
    /// # Panics
    ///
    /// Panics if `state`'s length does not match the arena layout.
    pub fn intern(&self, state: &[u32]) -> (StateId, bool) {
        let words = self.layout.words();
        assert_eq!(state.len(), words, "state length mismatch");
        let hash = hash_words(state);
        let shard_index = ((hash >> SHARD_SHIFT) & self.shard_mask) as usize;
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("arena shard lock poisoned");
        let mut slot = (hash as usize) & shard.mask;
        loop {
            let entry = shard.table[slot];
            if entry == EMPTY_SLOT {
                let local = shard.hashes.len();
                if shard.block_next == shard.block_end {
                    // Current block exhausted (or none yet): claim the
                    // next dense id range.
                    let block = self.next_block.fetch_add(1, Ordering::AcqRel);
                    shard.block_next =
                        u32::try_from(block * Self::ID_BLOCK).expect("state id space exhausted");
                    shard.block_end = shard.block_next + Self::ID_BLOCK as u32;
                }
                let global = shard.block_next;
                shard.block_next += 1;
                shard.slab.extend_from_slice(state);
                shard.hashes.push(hash);
                shard.globals.push(global);
                shard.table[slot] = local as u32;
                if shard.hashes.len() * 10 >= shard.table.len() * 7 {
                    shard.grow();
                }
                self.len.fetch_add(1, Ordering::AcqRel);
                return (StateId::from_index(global as usize), true);
            }
            let candidate = entry as usize;
            if shard.hashes[candidate] == hash {
                let start = candidate * words;
                if &shard.slab[start..start + words] == state {
                    let global = shard.globals[candidate];
                    return (StateId::from_index(global as usize), false);
                }
            }
            slot = (slot + 1) & shard.mask;
        }
    }

    /// Approximate resident size in bytes: every shard's slab, hash cache,
    /// id map and probe table. Interned states are never evicted, so the
    /// current size is also the peak.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("arena shard lock poisoned")
                    .resident_bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeInterval, TimePetriNet, TpnBuilder};

    fn layout() -> StateLayout {
        StateLayout::of(&chain_net(1))
    }

    /// A linear chain of `n` exact-delay transitions.
    fn chain_net(n: usize) -> TimePetriNet {
        let mut b = TpnBuilder::new("chain");
        let mut prev = b.place_with_tokens("p0", 1);
        for i in 0..n {
            let next = b.place(format!("p{}", i + 1));
            let t = b.transition(format!("t{i}"), TimeInterval::exact(1));
            b.arc_place_to_transition(prev, t, 1);
            b.arc_transition_to_place(t, next, 1);
            prev = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn parallelism_clamps_and_defaults() {
        assert_eq!(Parallelism::default(), Parallelism::SEQUENTIAL);
        assert_eq!(Parallelism::new(0).jobs(), 1);
        assert_eq!(Parallelism::new(4).jobs(), 4);
        assert!(Parallelism::new(1).is_sequential());
        assert!(!Parallelism::new(2).is_sequential());
    }

    #[test]
    fn interning_dedups_and_assigns_unique_bounded_ids() {
        let arena = ShardedArena::new(layout(), 4);
        let words = arena.layout().words();
        let mut indexes = Vec::new();
        for i in 0..100u32 {
            let mut state = vec![0u32; words];
            state[0] = i;
            let (id, fresh) = arena.intern(&state);
            assert!(fresh);
            assert_eq!(arena.intern(&state), (id, false));
            indexes.push(id.index());
        }
        assert_eq!(arena.len(), 100);
        // Ids are unique and live below the advertised upper bound.
        indexes.sort_unstable();
        indexes.dedup();
        assert_eq!(indexes.len(), 100, "ids are unique");
        assert!(indexes[99] < arena.id_upper_bound());
        // The id-space slack is bounded: at most one partial block per
        // shard is outstanding.
        assert!(
            arena.id_upper_bound() - arena.len()
                <= arena.shard_count() * (ShardedArena::ID_BLOCK - 1)
        );
        assert!(arena.resident_bytes() > 0);
    }

    #[test]
    fn single_worker_interning_stays_compact_across_many_blocks() {
        // Enough states that every shard cycles through several id
        // blocks: ids stay unique and the id space compact (bounded
        // slack), even though states hash-route across all shards.
        let arena = ShardedArena::new(layout(), 1);
        let words = arena.layout().words();
        let n = 8 * arena.shard_count() * ShardedArena::ID_BLOCK;
        let mut ids = Vec::new();
        for i in 0..n as u32 {
            let mut state = vec![0u32; words];
            state[0] = i;
            state[1] = i.wrapping_mul(0x9e37);
            ids.push(arena.intern(&state).0.index());
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(arena.len(), n);
        assert!(arena.id_upper_bound() >= n);
        assert!(arena.id_upper_bound() - n <= arena.shard_count() * (ShardedArena::ID_BLOCK - 1));
    }

    #[test]
    fn contended_interning_never_aliases_ids_across_blocks() {
        // The regression this guards: two distinct states must never
        // receive the same id (an id block handed to two shards would
        // surface here as an id collision).
        let net = chain_net(1);
        let arena = ShardedArena::new(StateLayout::of(&net), 8);
        let words = arena.layout().words();
        let per_thread = 4 * ShardedArena::ID_BLOCK as u32 * 8;
        let observed: Vec<Vec<(StateId, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u32)
                .map(|worker| {
                    let arena = &arena;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..per_thread {
                            // Overlapping ranges: every state is interned
                            // by two workers racing on the same shard.
                            let value = i + (worker % 2) * (per_thread / 2);
                            let mut state = vec![0u32; words];
                            state[0] = value;
                            state[1] = value.rotate_left(13);
                            let (id, _) = arena.intern(&state);
                            out.push((id, value));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut id_to_value: std::collections::HashMap<usize, u32> =
            std::collections::HashMap::new();
        let mut distinct_values: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (id, value) in observed.into_iter().flatten() {
            if let Some(&prior) = id_to_value.get(&id.index()) {
                assert_eq!(
                    prior,
                    value,
                    "id {} issued for two distinct states",
                    id.index()
                );
            } else {
                id_to_value.insert(id.index(), value);
            }
            distinct_values.insert(value);
        }
        assert_eq!(arena.len(), distinct_values.len());
        assert_eq!(id_to_value.len(), distinct_values.len());
        assert!(
            arena.id_upper_bound() - arena.len()
                <= arena.shard_count() * (ShardedArena::ID_BLOCK - 1),
            "id-space slack exceeded the one-partial-block-per-shard bound"
        );
    }

    #[test]
    fn concurrent_interning_yields_one_fresh_insert_per_state() {
        let net = chain_net(1);
        let arena = ShardedArena::new(StateLayout::of(&net), 4);
        let words = arena.layout().words();
        let fresh_count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u32 {
                        let mut state = vec![0u32; words];
                        state[0] = i;
                        state[1] = i.rotate_left(16);
                        let (_, fresh) = arena.intern(&state);
                        if fresh {
                            fresh_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            fresh_count.load(Ordering::Relaxed),
            1000,
            "each distinct state is fresh exactly once across threads"
        );
        assert_eq!(arena.len(), 1000);
    }

    #[test]
    fn concurrent_ids_agree_across_threads() {
        let net = chain_net(1);
        let arena = ShardedArena::new(StateLayout::of(&net), 2);
        let words = arena.layout().words();
        let ids: Vec<Vec<StateId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        (0..200u32)
                            .map(|i| {
                                let mut state = vec![0u32; words];
                                state[0] = i;
                                arena.intern(&state).0
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
    }
}
