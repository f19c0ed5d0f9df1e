//! The packed state kernel: contiguous state encoding and an interning
//! arena that deduplicates states to dense `u32` ids.
//!
//! The TLTS walkers (the scheduler's DFS and its replay oracle) spend
//! their time generating successor states and asking "have I seen this
//! state before?". The boundary [`State`]/[`Marking`] value types answer
//! that with per-state heap allocations and structural hashing of two separate
//! vectors. This module packs a state into **one contiguous `u32` slice**
//! — token counts followed by split 64-bit clocks — described by a
//! [`StateLayout`], and interns those slices in a [`StateArena`]: a single
//! growable slab plus an open-addressing hash table mapping slices to
//! [`StateId`]s. Dead-set and visited-set membership then become integer
//! operations over dense ids, and the steady-state exploration loop
//! performs no heap allocation per successor.
//!
//! A state's hash is its **key**, a linear form over its values (see
//! [`StateLayout::state_key`]). A firing changes a few token counts and
//! the clocks of the enabled transitions, so the firing rule
//! ([`TimePetriNet::fire_into`]) returns the key's change and the explorer
//! adds it to the parent's cached key: no per-successor pass over the
//! whole state. The key only routes the probe; ids, stored words, byte
//! counts and digests do not depend on it.

use crate::state::State;
use crate::{Marking, PlaceId, Time, TimePetriNet, TransitionId};

/// The packed encoding of one TLTS state for a particular net:
/// `place_count` token words followed by two words (low, high) per
/// transition clock.
///
/// The encoding is canonical — equal states have equal word sequences —
/// because the firing rule normalizes disabled transitions' clocks to
/// zero, so slice equality and slice hashing coincide with TLTS state
/// identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateLayout {
    places: u32,
    transitions: u32,
}

impl StateLayout {
    /// The layout of `net`'s states.
    pub fn of(net: &TimePetriNet) -> Self {
        StateLayout {
            places: net.place_count() as u32,
            transitions: net.transition_count() as u32,
        }
    }

    /// Number of places encoded.
    pub fn place_count(&self) -> usize {
        self.places as usize
    }

    /// Number of transition clocks encoded.
    pub fn transition_count(&self) -> usize {
        self.transitions as usize
    }

    /// The packed size of one state, in `u32` words.
    pub fn words(&self) -> usize {
        self.places as usize + 2 * self.transitions as usize
    }

    /// Tokens on `place` in the packed `state`.
    #[inline]
    pub fn tokens(&self, state: &[u32], place: PlaceId) -> u32 {
        state[place.index()]
    }

    /// The clock of `transition` in the packed `state`.
    #[inline]
    pub fn clock(&self, state: &[u32], transition: TransitionId) -> Time {
        let at = self.places as usize + 2 * transition.index();
        Time::from(state[at]) | (Time::from(state[at + 1]) << 32)
    }

    /// The key of the packed `state`, `Σ α_p·m(p) + Σ a_t·c(t)` (mod
    /// 2⁶⁴), whose coefficients are fixed odd constants derived from each
    /// place and transition index. Equal states have equal keys. The key
    /// is linear, so a firing's change to it depends only on the words the
    /// firing changes: [`TimePetriNet::fire_into`] returns that change,
    /// and a full recomputation serves only start states, boundary values
    /// and the debug check of every carried key.
    ///
    /// # Panics
    ///
    /// Panics if `state` is shorter than this layout.
    pub fn state_key(&self, state: &[u32]) -> u64 {
        let places = self.place_count();
        let mut key = 0u64;
        for (p, &tokens) in state[..places].iter().enumerate() {
            key = key.wrapping_add(place_coefficient(p).wrapping_mul(u64::from(tokens)));
        }
        for t in 0..self.transition_count() {
            let clock = self.clock(state, TransitionId::from_index(t));
            key = key.wrapping_add(clock_coefficient(t).wrapping_mul(clock));
        }
        key
    }

    /// Writes the clock of `transition` into the packed `state`.
    #[inline]
    pub fn set_clock(&self, state: &mut [u32], transition: TransitionId, value: Time) {
        let at = self.places as usize + 2 * transition.index();
        state[at] = value as u32;
        state[at + 1] = (value >> 32) as u32;
    }

    /// Packs a boundary [`State`] value into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `dst` does not match this layout.
    pub fn pack(&self, state: &State, dst: &mut [u32]) {
        assert_eq!(dst.len(), self.words(), "destination length mismatch");
        assert_eq!(state.marking().place_count(), self.place_count());
        assert_eq!(state.clocks().len(), self.transition_count());
        dst[..self.place_count()].copy_from_slice(state.marking().as_slice());
        for (i, &clock) in state.clocks().iter().enumerate() {
            self.set_clock(dst, TransitionId::from_index(i), clock);
        }
    }

    /// Unpacks a packed state back into the boundary [`State`] value type.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not match this layout.
    pub fn unpack(&self, src: &[u32]) -> State {
        assert_eq!(src.len(), self.words(), "source length mismatch");
        let marking = Marking::from_vec(src[..self.place_count()].to_vec());
        let clocks = (0..self.transition_count())
            .map(|i| self.clock(src, TransitionId::from_index(i)))
            .collect();
        State::new(marking, clocks)
    }
}

/// A dense identifier of an interned state within a [`StateArena`].
///
/// Ids are assigned in interning order starting from zero, so explorers
/// can maintain per-state side tables (dead bits, depths, parents) as
/// plain vectors indexed by [`StateId::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The dense index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index; meaningful only for ids obtained
    /// from the same arena.
    pub fn from_index(index: usize) -> Self {
        StateId(index as u32)
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The coefficient `α_p` of place `p`'s token count in
/// [`StateLayout::state_key`].
pub(crate) fn place_coefficient(p: usize) -> u64 {
    splitmix64(2 * p as u64) | 1
}

/// The coefficient `a_t` of transition `t`'s clock in
/// [`StateLayout::state_key`].
pub(crate) fn clock_coefficient(t: usize) -> u64 {
    splitmix64(2 * t as u64 + 1) | 1
}

/// The `index`-th output of the splitmix64 generator seeded with zero.
fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The murmur3 64-bit finalizer: spreads a key's bits over the whole
/// word, so the probe slot (low bits) and the tag (high bits) depend on
/// every bit of the linear key.
fn finalize(key: u64) -> u64 {
    let mut hash = key ^ (key >> 33);
    hash = hash.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    hash ^ (hash >> 33)
}

/// A free probe-table slot. No entry equals it: an entry's id bits hold
/// an id below the table's 70% load bound, never the all-ones id
/// `len − 1`, whatever its tag bits are.
const EMPTY_SLOT: u32 = u32::MAX;

/// An interning arena for packed states: one contiguous slab holding every
/// distinct state seen so far, plus an open-addressing hash table that
/// deduplicates new states to [`StateId`]s.
///
/// The table is keyed by [`StateLayout::state_key`], kept per state in a
/// key cache. Each `u32` slot holds an id in its low `log2(len)` bits and
/// a tag from the finalized key in the bits above, so a probe loads a
/// cached key and compares a stored state only when the tag matches.
/// Nothing else depends on the key: ids follow interning order, table
/// sizes follow the state count, and no stored byte or digest reads it.
///
/// Interning a state that is already present performs no allocation at
/// all; interning a fresh state appends to the slab (amortized growth).
/// This is what lets the explorers' inner loops run allocation-free in the
/// steady state: visited- and dead-set bookkeeping happens on dense ids,
/// never on owned state values.
///
/// # Examples
///
/// ```
/// use ezrt_tpn::{StateArena, StateLayout, TimeInterval, TpnBuilder};
///
/// # fn main() -> Result<(), ezrt_tpn::BuildNetError> {
/// let mut b = TpnBuilder::new("tiny");
/// let p = b.place_with_tokens("p", 1);
/// let t = b.transition("t", TimeInterval::exact(1));
/// b.arc_place_to_transition(p, t, 1);
/// let net = b.build()?;
///
/// let mut arena = StateArena::new(StateLayout::of(&net));
/// let mut packed = vec![0u32; arena.layout().words()];
/// net.write_initial_packed(&mut packed);
/// let (id, fresh) = arena.intern(&packed);
/// assert!(fresh);
/// assert_eq!(arena.intern(&packed), (id, false), "re-interning dedups");
/// assert_eq!(arena.get(id), packed.as_slice());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StateArena {
    layout: StateLayout,
    /// All interned states, back to back, `layout.words()` words each.
    slab: Vec<u32>,
    /// The key of each interned state: the parent key a firing's key
    /// change is added to, the probe's check before a slab compare, and
    /// the source `grow` re-slots and re-tags from.
    keys: Vec<u64>,
    /// Open-addressing table of tagged state ids (`tag | id`, the id in
    /// the bits `mask` covers); `EMPTY_SLOT` marks a free slot.
    table: Vec<u32>,
    mask: usize,
    /// The capacities `slab` and `keys` would have in a fresh arena
    /// (see [`reserve_amortized`]); recycled buffers may hold more.
    slab_reserved: usize,
    keys_reserved: usize,
}

/// The memory of a finished [`StateArena`] — slab, key cache and probe
/// table — for [`StateArena::with_buffers`] to reuse, so a process that
/// runs searches back to back does not map and fault a fresh slab for
/// each one. The contents are stale; only the allocations matter.
#[derive(Debug, Default)]
pub struct ArenaBuffers {
    slab: Vec<u32>,
    keys: Vec<u64>,
    table: Vec<u32>,
}

impl ArenaBuffers {
    /// The bytes the buffers hold allocated.
    pub fn capacity_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<u32>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

impl StateArena {
    /// An empty arena for states of the given layout.
    pub fn new(layout: StateLayout) -> Self {
        Self::with_buffers(layout, ArenaBuffers::default())
    }

    /// An empty arena that reuses `buffers`, e.g. those of a finished
    /// search's arena. It assigns the same ids and reports the same
    /// [`resident_bytes`](Self::resident_bytes) as [`new`](Self::new)
    /// after every intern; it only skips the allocations the buffers
    /// already cover.
    pub fn with_buffers(layout: StateLayout, buffers: ArenaBuffers) -> Self {
        let ArenaBuffers {
            mut slab,
            mut keys,
            mut table,
        } = buffers;
        slab.clear();
        keys.clear();
        let capacity = 1024;
        reset_table(&mut table, capacity);
        StateArena {
            layout,
            slab,
            keys,
            table,
            mask: capacity - 1,
            slab_reserved: 0,
            keys_reserved: 0,
        }
    }

    /// Gives the arena's memory back for [`with_buffers`](Self::with_buffers).
    pub fn into_buffers(self) -> ArenaBuffers {
        ArenaBuffers {
            slab: self.slab,
            keys: self.keys,
            table: self.table,
        }
    }

    /// The layout states in this arena use.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The packed words of an interned state.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    pub fn get(&self, id: StateId) -> &[u32] {
        let words = self.layout.words();
        let start = id.index() * words;
        &self.slab[start..start + words]
    }

    /// Interns `state`, returning its id and whether it was freshly
    /// inserted (`true`) or already present (`false`).
    ///
    /// # Panics
    ///
    /// Panics if `state`'s length does not match the arena layout.
    pub fn intern(&mut self, state: &[u32]) -> (StateId, bool) {
        let key = self.layout.state_key(state);
        self.intern_keyed(state, key)
    }

    /// The key of an interned state (see [`StateLayout::state_key`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    pub fn key(&self, id: StateId) -> u64 {
        self.keys[id.index()]
    }

    /// [`intern`](Self::intern) for a caller that already knows `state`'s
    /// key, e.g. a parent's key plus a firing's key change. Debug builds
    /// check the key against a full [`StateLayout::state_key`].
    pub(crate) fn intern_keyed(&mut self, state: &[u32], key: u64) -> (StateId, bool) {
        let words = self.layout.words();
        assert_eq!(state.len(), words, "state length mismatch");
        debug_assert_eq!(
            key,
            self.layout.state_key(state),
            "the carried state key drifted from a full recomputation"
        );
        let hash = finalize(key);
        let tag = slot_tag(hash, self.mask);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY_SLOT {
                let len = self.keys.len();
                let id = StateId(len as u32);
                reserve_amortized(&mut self.slab, &mut self.slab_reserved, (len + 1) * words);
                self.slab.extend_from_slice(state);
                reserve_amortized(&mut self.keys, &mut self.keys_reserved, len + 1);
                self.keys.push(key);
                self.table[slot] = tag | id.0;
                if self.keys.len() * 10 >= self.table.len() * 7 {
                    self.grow();
                }
                return (id, true);
            }
            if entry & !(self.mask as u32) == tag {
                let candidate = (entry & self.mask as u32) as usize;
                if self.keys[candidate] == key {
                    let start = candidate * words;
                    if &self.slab[start..start + words] == state {
                        return (StateId(candidate as u32), false);
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Approximate resident size of the arena in bytes: slab, key cache
    /// and probe table, as a fresh arena reserves them. Since interned
    /// states are never evicted, the current size is also the peak. A
    /// recycled buffer's extra capacity is not counted: it belongs to
    /// whoever handed the buffers over.
    pub fn resident_bytes(&self) -> usize {
        self.slab_reserved * std::mem::size_of::<u32>()
            + self.keys_reserved * std::mem::size_of::<u64>()
            + self.table.len() * std::mem::size_of::<u32>()
    }

    /// Doubles the probe table in place and re-slots and re-tags every
    /// state from the key cache.
    fn grow(&mut self) {
        let capacity = self.table.len() * 2;
        let mask = capacity - 1;
        reset_table(&mut self.table, capacity);
        for (id, &key) in self.keys.iter().enumerate() {
            let hash = finalize(key);
            let mut slot = (hash as usize) & mask;
            while self.table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = slot_tag(hash, mask) | id as u32;
        }
        self.mask = mask;
    }
}

/// The tag of a finalized key in a table whose ids occupy the bits of
/// `mask`: the key's high word with those bits cleared. The slot comes
/// from the low bits, so the tag adds information the slot does not.
fn slot_tag(hash: u64, mask: usize) -> u32 {
    (hash >> 32) as u32 & !(mask as u32)
}

/// Empties `table` and refills it with `capacity` free slots, reserving
/// exactly `capacity` (what `vec![EMPTY_SLOT; capacity]` would) only when
/// the buffer is smaller.
fn reset_table(table: &mut Vec<u32>, capacity: usize) {
    table.clear();
    if table.capacity() < capacity {
        table.reserve_exact(capacity);
    }
    table.resize(capacity, EMPTY_SLOT);
}

/// Makes room for `needed` elements in `buf`, whose logical capacity is
/// `reserved`: the capacity the same pushes would have given a fresh
/// `Vec`. Past `reserved` it grows by `Vec`'s own amortized rule for
/// elements of 2 to 1,024 bytes, `max(2 · reserved, needed, 4)`, and calls `reserve_exact` up to the new
/// value only when the buffer is smaller, so a fresh buffer ends with
/// exactly the capacity plain pushes would give it and a recycled one
/// with at least that. Memory accounting reads `reserved`, which makes
/// it independent of where the buffer came from.
pub fn reserve_amortized<T>(buf: &mut Vec<T>, reserved: &mut usize, needed: usize) {
    if needed > *reserved {
        *reserved = (*reserved * 2).max(needed).max(4);
        if buf.capacity() < *reserved {
            buf.reserve_exact(*reserved - buf.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeInterval, TpnBuilder};

    fn layout() -> StateLayout {
        StateLayout {
            places: 3,
            transitions: 2,
        }
    }

    #[test]
    fn layout_words_and_accessors() {
        let layout = layout();
        assert_eq!(layout.words(), 3 + 4);
        let mut packed = vec![0u32; layout.words()];
        packed[1] = 5;
        layout.set_clock(
            &mut packed,
            TransitionId::from_index(1),
            u64::from(u32::MAX) + 7,
        );
        assert_eq!(layout.tokens(&packed, PlaceId::from_index(1)), 5);
        assert_eq!(
            layout.clock(&packed, TransitionId::from_index(1)),
            u64::from(u32::MAX) + 7
        );
        assert_eq!(layout.clock(&packed, TransitionId::from_index(0)), 0);
    }

    #[test]
    fn pack_unpack_round_trips() {
        let layout = layout();
        let state = State::new(Marking::from_vec(vec![1, 0, 2]), vec![9, 1 << 40]);
        let mut packed = vec![0u32; layout.words()];
        layout.pack(&state, &mut packed);
        assert_eq!(layout.unpack(&packed), state);
    }

    #[test]
    fn interning_dedups_and_preserves_content() {
        let layout = layout();
        let mut arena = StateArena::new(layout);
        let a = vec![1, 0, 0, 5, 0, 0, 0];
        let b = vec![0, 1, 0, 0, 0, 7, 0];
        let (ia, fresh_a) = arena.intern(&a);
        let (ib, fresh_b) = arena.intern(&b);
        assert!(fresh_a && fresh_b);
        assert_ne!(ia, ib);
        assert_eq!(arena.intern(&a), (ia, false));
        assert_eq!(arena.get(ia), a.as_slice());
        assert_eq!(arena.get(ib), b.as_slice());
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn arena_survives_growth() {
        let layout = StateLayout {
            places: 1,
            transitions: 1,
        };
        let mut arena = StateArena::new(layout);
        let mut ids = Vec::new();
        for i in 0..10_000u32 {
            let state = vec![i, i.rotate_left(16), 0];
            let (id, fresh) = arena.intern(&state);
            assert!(fresh, "state {i} collided");
            ids.push((id, state));
        }
        for (id, state) in &ids {
            assert_eq!(arena.get(*id), state.as_slice());
            assert_eq!(arena.intern(state), (*id, false));
        }
        assert!(arena.resident_bytes() > 10_000 * 3 * 4);
    }

    /// A state whose tag is all ones lands in a slot that reads
    /// `tag | id`, not `EMPTY_SLOT`: its id bits never are all ones. So
    /// it is found again, before and after a growth re-tags it, and never
    /// interned twice.
    #[test]
    fn an_all_ones_tag_is_never_read_as_an_empty_slot() {
        let layout = StateLayout {
            places: 1,
            transitions: 1,
        };
        let mut arena = StateArena::new(layout);
        let tag_bits = !(arena.mask as u32);
        let tokens = (0u32..)
            .find(|&m| slot_tag(finalize(layout.state_key(&[m, 0, 0])), arena.mask) == tag_bits)
            .expect("some token count has an all-ones tag");
        let state = [tokens, 0, 0];
        // 715 other states first: the last id before the first growth.
        for i in 0..715u32 {
            arena.intern(&[i, 1, 0]);
        }
        let (id, fresh) = arena.intern(&state);
        assert_eq!((id.index(), fresh), (715, true));
        assert_eq!(arena.table.len(), 1024, "still the first table");
        let hash = finalize(arena.key(id));
        let slot = (0..1024)
            .map(|i| ((hash as usize) + i) & arena.mask)
            .find(|&slot| arena.table[slot] & arena.mask as u32 == id.0)
            .expect("the state has a slot");
        assert_eq!(arena.table[slot], tag_bits | id.0);
        assert_ne!(arena.table[slot], EMPTY_SLOT);
        assert_eq!(arena.intern(&state), (id, false));
        arena.intern(&[u32::MAX, 1, 0]);
        assert_eq!(arena.table.len(), 2048, "the table grew");
        assert_eq!(arena.intern(&state), (id, false));
        assert_eq!(arena.len(), 717);
    }

    #[test]
    fn keys_are_linear_in_the_state_words() {
        let layout = layout();
        let a = [1u32, 0, 2, 5, 0, 0, 1];
        let b = [0u32, 3, 0, 0, 0, 9, 0];
        let sum: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(
            layout.state_key(&sum),
            layout.state_key(&a).wrapping_add(layout.state_key(&b))
        );
        assert_eq!(layout.state_key(&[0; 7]), 0);
        assert_ne!(layout.state_key(&a), layout.state_key(&b));
        let mut arena = StateArena::new(layout);
        let (id, _) = arena.intern(&a);
        assert_eq!(arena.key(id), layout.state_key(&a));
    }

    #[test]
    fn ids_are_dense_in_interning_order() {
        let mut arena = StateArena::new(layout());
        for i in 0..5u32 {
            let state = vec![i, 0, 0, 0, 0, 0, 0];
            let (id, _) = arena.intern(&state);
            assert_eq!(id.index(), i as usize);
            assert_eq!(StateId::from_index(id.index()), id);
        }
        assert_eq!(StateId::from_index(3).to_string(), "s3");
    }

    #[test]
    fn initial_state_packs_consistently() {
        let mut b = TpnBuilder::new("pack");
        let p = b.place_with_tokens("p", 2);
        let q = b.place("q");
        let t = b.transition("t", TimeInterval::new(1, 4).unwrap());
        b.arc_place_to_transition(p, t, 1);
        b.arc_transition_to_place(t, q, 1);
        let net = b.build().unwrap();
        let layout = StateLayout::of(&net);
        let mut packed = vec![0u32; layout.words()];
        net.write_initial_packed(&mut packed);
        assert_eq!(layout.unpack(&packed), net.initial_state());
    }
}
