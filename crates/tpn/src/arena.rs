//! The packed state kernel: contiguous state encoding and an interning
//! arena that deduplicates states to dense `u32` ids.
//!
//! The TLTS explorers (the scheduler's DFS, [`reachability`](crate::reachability)'s
//! BFS, the simulator's replay oracle) spend their time generating
//! successor states and asking "have I seen this state before?". The
//! boundary [`State`]/[`Marking`] value types answer that
//! with per-state heap allocations and structural hashing of two separate
//! vectors. This module packs a state into **one contiguous `u32` slice**
//! — token counts followed by split 64-bit clocks — described by a
//! [`StateLayout`], and interns those slices in a [`StateArena`]: a single
//! growable slab plus an open-addressing hash table mapping slices to
//! [`StateId`]s. Dead-set and visited-set membership then become integer
//! operations over dense ids, and the steady-state exploration loop
//! performs no heap allocation per successor.

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

const EMPTY_SLOT: u32 = u32::MAX;

/// An interning arena for packed states: one contiguous slab holding every
/// distinct state seen so far, plus an open-addressing hash table that
/// deduplicates new states to [`StateId`]s.
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
#[derive(Debug, Clone)]
pub struct StateArena {
    layout: StateLayout,
    /// All interned states, back to back, `layout.words()` words each.
    slab: Vec<u32>,
    /// The hash of each interned state, for cheap rehashing and probe
    /// short-circuiting.
    hashes: Vec<u64>,
    /// Open-addressing table of state ids; `EMPTY_SLOT` marks a free slot.
    table: Vec<u32>,
    mask: usize,
}

impl StateArena {
    /// An empty arena for states of the given layout.
    pub fn new(layout: StateLayout) -> Self {
        let capacity = 1024;
        StateArena {
            layout,
            slab: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY_SLOT; capacity],
            mask: capacity - 1,
        }
    }

    /// The layout states in this arena use.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
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
        let words = self.layout.words();
        assert_eq!(state.len(), words, "state length mismatch");
        let hash = hash_words(state);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY_SLOT {
                let id = StateId(self.hashes.len() as u32);
                self.slab.extend_from_slice(state);
                self.hashes.push(hash);
                self.table[slot] = id.0;
                if self.hashes.len() * 10 >= self.table.len() * 7 {
                    self.grow();
                }
                return (id, true);
            }
            let candidate = entry as usize;
            if self.hashes[candidate] == hash {
                let start = candidate * words;
                if &self.slab[start..start + words] == state {
                    return (StateId(entry), false);
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Approximate resident size of the arena in bytes: slab, hash cache
    /// and probe table. Since interned states are never evicted, the
    /// current size is also the peak.
    pub fn resident_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<u32>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    fn grow(&mut self) {
        let capacity = self.table.len() * 2;
        let mask = capacity - 1;
        let mut table = vec![EMPTY_SLOT; capacity];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = id as u32;
        }
        self.table = table;
        self.mask = mask;
    }
}

/// Multiply-mix over the packed words in four independent lanes, plus a
/// finalizer. Each lane folds every fourth pair of words (FxHash-style:
/// rotate, xor, multiply), so the four multiply chains overlap in the
/// pipeline instead of running as one serial chain over the whole state.
/// The lanes are then folded together and avalanched, so the low bits
/// (the probe slot) depend on every word.
fn hash_words(words: &[u32]) -> u64 {
    const K: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    fn mix(lane: u64, v: u64) -> u64 {
        (lane.rotate_left(5) ^ v).wrapping_mul(K)
    }
    let pair = |p: &[u32]| u64::from(p[0]) | (u64::from(p[1]) << 32);
    let mut lanes: [u64; 4] = [
        0xCBF2_9CE4_8422_2325,
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
    ];
    let mut blocks = words.chunks_exact(8);
    for block in &mut blocks {
        lanes[0] = mix(lanes[0], pair(&block[0..2]));
        lanes[1] = mix(lanes[1], pair(&block[2..4]));
        lanes[2] = mix(lanes[2], pair(&block[4..6]));
        lanes[3] = mix(lanes[3], pair(&block[6..8]));
    }
    for (i, &word) in blocks.remainder().iter().enumerate() {
        lanes[i % 4] = mix(lanes[i % 4], u64::from(word));
    }
    let mut hash = mix(mix(mix(lanes[0], lanes[1]), lanes[2]), lanes[3]) ^ words.len() as u64;
    // The murmur3 64-bit finalizer.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    hash ^ (hash >> 33)
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
