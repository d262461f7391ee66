use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ad_util::cast::u32_from_usize;

use crate::program::{DataId, TaskId};

/// Identity of a datum that can reside in an engine's global buffer: either
/// a task output (an atom's ofmap) or an external datum (weights, inputs).
///
/// The simulator interns every datum a program touches into a dense *slot*
/// (`u32`): task outputs first (slot = task index), then external data in
/// ascending [`DataId`] order. That numbering is exactly this enum's derived
/// `Ord` (all `Task` sort before all `Ext`), so slot order reproduces the
/// ordered-map iteration the runtime previously relied on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    /// Output of a task.
    Task(TaskId),
    /// External (DRAM-originated) datum.
    Ext(DataId),
}

/// Buffer-overflow eviction policy (paper Sec. IV-C "Buffering Strategy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionKind {
    /// The paper's Algorithm 3: evict the entry with the largest *invalid
    /// occupation* — `(next-use round − current round) × size` — i.e. the
    /// datum that would otherwise sit idle in the buffer the longest per
    /// byte.
    InvalidOccupation,
    /// First-in-first-out (baseline).
    Fifo,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    inserted_at: u64,
    /// Round of the datum's next anticipated use (`u64::MAX` = never),
    /// refreshed on insert and on every touch.
    next_use: u64,
}

/// `pos` marker of a slot that is not resident.
const ABSENT: u32 = u32::MAX;

/// Contents of one engine's global buffer.
///
/// Entries are keyed by the runtime's dense datum slot (see [`Datum`]).
/// `pos` maps a slot straight to its entry, so lookup, insert, touch and
/// remove are O(1): entries live unordered in the parallel `keys`/`vals`
/// arrays and a removal swaps the last entry into the hole. Storage order
/// never shows: [`BufferState::pick_victims_into`] ranks by a total order
/// (score, then slot) and [`BufferState::data`] sorts by slot.
#[derive(Debug, Clone)]
pub struct BufferState {
    capacity: u64,
    used: u64,
    /// `pos[slot]` is the slot's index in `keys`/`vals`, or [`ABSENT`].
    /// Sized up front by [`BufferState::with_slots`], else grown on insert.
    pos: Vec<u32>,
    /// Resident slots, in storage order.
    keys: Vec<u32>,
    /// `vals[i]` is `keys[i]`'s entry.
    vals: Vec<Entry>,
}

impl BufferState {
    /// An empty buffer of the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            pos: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// An empty buffer whose slot index already covers `0..slots`, so a run
    /// that knows its slot count never grows it.
    pub fn with_slots(capacity: u64, slots: usize) -> Self {
        Self {
            pos: vec![ABSENT; slots],
            ..Self::new(capacity)
        }
    }

    /// Storage index of `slot`, if resident.
    fn find(&self, slot: u32) -> Option<usize> {
        match self.pos.get(slot as usize) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Free bytes.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Whether the buffer holds `slot`.
    pub fn contains(&self, slot: u32) -> bool {
        self.find(slot).is_some()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over resident data in ascending slot order (sorted on each
    /// call: only engine death and debug checks need it).
    pub fn data(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let mut data: Vec<(u32, u64)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .map(|(&s, e)| (s, e.bytes))
            .collect();
        data.sort_unstable_by_key(|&(s, _)| s);
        data.into_iter()
    }

    /// Inserts `slot`; the caller must have made room first. `next_use` is
    /// the round of the datum's next anticipated consumption (`u64::MAX`
    /// when unknown/never).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the entry does not fit — the simulator always calls
    /// [`BufferState::pick_victims_into`] until it does.
    pub fn insert(&mut self, slot: u32, bytes: u64, round: u64, next_use: u64) {
        debug_assert!(
            self.used + bytes <= self.capacity,
            "buffer overflow on insert"
        );
        let entry = Entry {
            bytes,
            inserted_at: round,
            next_use,
        };
        match self.find(slot) {
            Some(i) => {
                self.used -= self.vals[i].bytes;
                self.vals[i] = entry;
            }
            None => {
                let s = slot as usize;
                if s >= self.pos.len() {
                    self.pos.resize(s + 1, ABSENT);
                }
                self.pos[s] = u32_from_usize(self.keys.len());
                self.keys.push(slot);
                self.vals.push(entry);
            }
        }
        self.used += bytes;
    }

    /// Marks `slot` as used and refreshes its next-use estimate (the
    /// invalid-occupation bookkeeping).
    pub fn touch(&mut self, slot: u32, next_use: u64) {
        if let Some(i) = self.find(slot) {
            self.vals[i].next_use = next_use;
        }
    }

    /// Removes `slot`, returning its size if it was resident.
    pub fn remove(&mut self, slot: u32) -> Option<u64> {
        let i = self.find(slot)?;
        self.pos[slot as usize] = ABSENT;
        self.keys.swap_remove(i);
        let bytes = self.vals.swap_remove(i).bytes;
        if let Some(&moved) = self.keys.get(i) {
            self.pos[moved as usize] = u32_from_usize(i);
        }
        self.used -= bytes;
        Some(bytes)
    }

    /// [`BufferState::pick_victims_into`] into a new vector, for tests.
    #[cfg(test)]
    fn pick_victims<F: Fn(u32) -> bool + ?Sized>(
        &self,
        kind: EvictionKind,
        now: u64,
        deficit: u64,
        pinned: &F,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        self.pick_victims_into(kind, now, deficit, pinned, &mut out);
        out
    }

    /// Replaces `out` with victims freeing at least `deficit` bytes, in
    /// eviction order, according to `kind` (Alg. 3 evaluated over the
    /// buffer).
    ///
    /// `now` is the current round; `pinned(slot)` marks entries that must
    /// stay (operands/outputs of the executing task). May free fewer bytes
    /// than requested when everything else is pinned; a zero `deficit`
    /// selects nothing.
    ///
    /// Eviction order is score descending, then slot ascending. One scan
    /// that allocates nothing finds the top unpinned entry; most calls need
    /// only that one. When it alone does not cover `deficit`, the other
    /// unpinned entries are scored into a heap and popped only until the
    /// deficit is freed, so no call sorts the whole buffer.
    pub fn pick_victims_into<F: Fn(u32) -> bool + ?Sized>(
        &self,
        kind: EvictionKind,
        now: u64,
        deficit: u64,
        pinned: &F,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if deficit == 0 {
            return;
        }
        // The top scan scores a pinned entry 0. Every unpinned score is at
        // least 1 (see `Entry::score`), so a top score of 0 means nothing
        // is evictable. Slots are unique, so `(score, slot)` is a total
        // order and the bytes never break a tie.
        let (mut top_score, mut top, mut bytes) = (0u128, u32::MAX, 0u64);
        for (&s, e) in self.keys.iter().zip(&self.vals) {
            let score = if pinned(s) { 0 } else { e.score(kind, now) };
            if score > top_score || (score == top_score && s < top) {
                (top_score, top, bytes) = (score, s, e.bytes);
            }
        }
        if top_score == 0 {
            return;
        }
        out.push(top);
        if bytes >= deficit {
            return;
        }
        let mut heap: BinaryHeap<(u128, Reverse<u32>, u64)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&s, _)| s != top && !pinned(s))
            .map(|(&s, e)| (e.score(kind, now), Reverse(s), e.bytes))
            .collect();
        let mut freed = bytes;
        while freed < deficit {
            let Some((_, Reverse(s), bytes)) = heap.pop() else {
                break;
            };
            freed += bytes;
            out.push(s);
        }
    }
}

impl Entry {
    /// Eviction priority under `kind` at round `now`: the larger, the
    /// sooner evicted. Never 0: the wait and the byte factor are each at
    /// least 1, and the FIFO score is at least `u128::MAX − u64::MAX`.
    fn score(&self, kind: EvictionKind, now: u64) -> u128 {
        match kind {
            EvictionKind::InvalidOccupation => {
                // Alg. 3: invalid occupation = wait-time × size. Data never
                // used again has unbounded occupation.
                let wait = if self.next_use == u64::MAX {
                    u64::MAX / 2
                } else {
                    self.next_use.saturating_sub(now) + 1
                };
                (wait as u128) * (self.bytes.max(1) as u128)
            }
            // FIFO evicts the *smallest* timestamp first: invert.
            EvictionKind::Fifo => u128::MAX - self.inserted_at as u128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: u64 = u64::MAX;

    #[test]
    fn insert_remove_accounting() {
        let mut b = BufferState::new(100);
        b.insert(0, 40, 0, NEVER);
        b.insert(1, 30, 1, NEVER);
        assert_eq!(b.used(), 70);
        assert_eq!(b.free(), 30);
        assert_eq!(b.remove(0), Some(40));
        assert_eq!(b.used(), 30);
        assert_eq!(b.remove(0), None);
    }

    #[test]
    fn reinsert_replaces() {
        let mut b = BufferState::new(100);
        b.insert(0, 40, 0, NEVER);
        b.insert(0, 60, 1, NEVER);
        assert_eq!(b.used(), 60);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn removed_entry_storage_is_reused() {
        let mut b = BufferState::new(100);
        b.insert(0, 10, 0, NEVER);
        b.insert(1, 20, 0, NEVER);
        b.insert(2, 30, 0, NEVER);
        assert_eq!(b.remove(1), Some(20));
        b.insert(5, 25, 3, 7);
        assert_eq!(b.vals.len(), 3, "the freed entry is reused, not appended");
        let data: Vec<(u32, u64)> = b.data().collect();
        assert_eq!(data, vec![(0, 10), (2, 30), (5, 25)]);
        assert_eq!(b.used(), 65);
        // The reused entry carries the new datum's bookkeeping only.
        let v = b.pick_victims(EvictionKind::Fifo, 9, 1, &|s| s != 5);
        assert_eq!(v, vec![5]);
        assert_eq!(b.remove(5), Some(25));
        assert_eq!(b.remove(0), Some(10));
        assert_eq!(b.data().collect::<Vec<_>>(), vec![(2, 30)]);
    }

    #[test]
    fn entries_iterate_in_slot_order() {
        let mut b = BufferState::new(100);
        b.insert(7, 10, 0, NEVER);
        b.insert(2, 10, 0, NEVER);
        b.insert(5, 10, 0, NEVER);
        let slots: Vec<u32> = b.data().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![2, 5, 7]);
    }

    #[test]
    fn invalid_occupation_prefers_long_wait_large_size() {
        let mut b = BufferState::new(1000);
        b.insert(0, 100, 0, 1); // occupation ~ 2*100
        b.insert(1, 100, 0, 9); // occupation ~ 10*100
        b.insert(2, 10, 0, 9); // occupation ~ 10*10
        let v = b.pick_victims(EvictionKind::InvalidOccupation, 0, 1, &|_| false);
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn never_used_again_evicted_first() {
        let mut b = BufferState::new(1000);
        b.insert(0, 500, 0, 1);
        b.insert(1, 1, 0, NEVER); // tiny, but dead
        let v = b.pick_victims(EvictionKind::InvalidOccupation, 0, 1, &|_| false);
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn batch_eviction_frees_enough() {
        let mut b = BufferState::new(1000);
        for i in 0..5u32 {
            b.insert(i, 100, 0, 5 + u64::from(i));
        }
        let v = b.pick_victims(EvictionKind::InvalidOccupation, 0, 250, &|_| false);
        // 3 victims of 100 bytes each cover the 250-byte deficit.
        assert_eq!(v.len(), 3);
        // Longest-wait entries go first.
        assert_eq!(v[0], 4);
    }

    #[test]
    fn fifo_evicts_the_oldest_insert() {
        let mut b = BufferState::new(1000);
        b.insert(0, 10, 0, NEVER);
        b.insert(1, 10, 1, NEVER);
        b.touch(0, NEVER); // a use does not refresh FIFO age
        let fifo = b.pick_victims(EvictionKind::Fifo, 6, 1, &|_| false);
        assert_eq!(fifo, vec![0]); // inserted first
    }

    #[test]
    fn pinned_entries_never_chosen() {
        let mut b = BufferState::new(1000);
        b.insert(0, 10, 0, NEVER);
        let v = b.pick_victims(EvictionKind::Fifo, 1, 1, &|s| s == 0);
        assert!(v.is_empty());
    }

    #[test]
    fn pinned_top_entry_yields_to_the_next() {
        // Slot 3 out-scores every other entry under both policies; pinned,
        // it must lose to the best unpinned entry, not to the first slot
        // scanned or to the lowest slot.
        let mut b = BufferState::new(1000);
        b.insert(5, 10, 4, 2);
        b.insert(3, 100, 0, NEVER);
        b.insert(1, 10, 3, 1);
        b.insert(4, 50, 2, 9);
        let pin3 = |s: u32| s == 3;
        let io = EvictionKind::InvalidOccupation;
        assert_eq!(b.pick_victims(io, 0, 1, &|_| false), vec![3]);
        assert_eq!(b.pick_victims(io, 0, 1, &pin3), vec![4]);
        assert_eq!(b.pick_victims(io, 0, 60, &pin3), vec![4, 5]);
        assert_eq!(
            b.pick_victims(EvictionKind::Fifo, 5, 1, &|_| false),
            vec![3]
        );
        assert_eq!(b.pick_victims(EvictionKind::Fifo, 5, 1, &pin3), vec![4]);
    }

    #[test]
    fn zero_deficit_selects_nothing() {
        let mut b = BufferState::new(100);
        b.insert(0, 40, 0, NEVER);
        b.insert(1, 30, 0, 3);
        for kind in [EvictionKind::InvalidOccupation, EvictionKind::Fifo] {
            assert!(
                b.pick_victims(kind, 0, 0, &|_| false).is_empty(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn victim_buffer_is_cleared_and_reused() {
        let mut b = BufferState::new(100);
        b.insert(0, 40, 0, 9);
        b.insert(1, 30, 0, 2);
        let mut out = vec![7, 7, 7];
        let kind = EvictionKind::InvalidOccupation;
        b.pick_victims_into(kind, 0, 50, &|_| false, &mut out);
        assert_eq!(out, vec![0, 1], "longest wait first, then the rest");
        b.pick_victims_into(kind, 0, 0, &|_| false, &mut out);
        assert!(out.is_empty(), "a zero deficit clears the previous victims");
        b.pick_victims_into(kind, 0, 1, &|s| s == 0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn zero_capacity_buffer_is_inert() {
        let mut b = BufferState::new(0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.free(), 0);
        assert!(b.is_empty());
        // Nothing can be selected from, removed from, or found in it.
        assert!(b
            .pick_victims(EvictionKind::InvalidOccupation, 0, 1, &|_| false)
            .is_empty());
        assert_eq!(b.remove(0), None);
        assert!(!b.contains(0));
        b.touch(0, NEVER); // no-op, must not panic
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn deficit_beyond_evictable_bytes_returns_everything_unpinned() {
        // A tensor larger than the whole buffer can never fit: the caller
        // asks for more bytes than exist; the scan must offer every
        // unpinned entry (and no more), leaving the shortfall to the
        // caller's spill path.
        let mut b = BufferState::new(100);
        b.insert(0, 40, 0, 5);
        b.insert(1, 30, 0, 9);
        b.insert(2, 20, 0, NEVER);
        let v = b.pick_victims(EvictionKind::InvalidOccupation, 0, 10_000, &|s| s == 1);
        assert_eq!(v.len(), 2);
        assert!(v.contains(&0) && v.contains(&2));
        assert!(
            !v.contains(&1),
            "pinned entries stay even under an impossible deficit"
        );
    }

    #[test]
    fn exact_fit_insert_uses_full_capacity() {
        let mut b = BufferState::new(100);
        b.insert(0, 100, 0, NEVER);
        assert_eq!(b.free(), 0);
        assert_eq!(b.used(), 100);
        // Evicting it restores the full capacity.
        assert_eq!(b.remove(0), Some(100));
        assert_eq!(b.free(), 100);
    }

    #[test]
    fn touch_refreshes_next_use() {
        let mut b = BufferState::new(1000);
        b.insert(0, 10, 0, 2);
        b.insert(1, 10, 0, 50);
        // After round 2, slot 0's next use moves out to round 100: it now
        // out-waits slot 1.
        b.touch(0, 100);
        let v = b.pick_victims(EvictionKind::InvalidOccupation, 3, 1, &|_| false);
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn datum_order_matches_slot_numbering() {
        // The runtime numbers task outputs before externals; the enum's
        // derived order must agree so slot order == former map order.
        assert!(Datum::Task(TaskId(u32::MAX)) < Datum::Ext(DataId(0)));
        assert!(Datum::Task(TaskId(1)) < Datum::Task(TaskId(2)));
        assert!(Datum::Ext(DataId(1)) < Datum::Ext(DataId(2)));
    }

    /// The sorted-vector layout `BufferState` had before it became
    /// slot-indexed, kept verbatim as the reference: `keys` ascending, `at`
    /// parallel, entries in `vals` recycled through `free`.
    mod oracle {
        use ad_util::cast::u32_from_usize;
        use ad_util::Rng64;

        use super::super::{BufferState, Entry, EvictionKind};

        #[derive(Debug, Clone)]
        struct SortedBuffer {
            capacity: u64,
            used: u64,
            keys: Vec<u32>,
            at: Vec<u32>,
            vals: Vec<Entry>,
            free: Vec<u32>,
        }

        impl SortedBuffer {
            fn new(capacity: u64) -> Self {
                Self {
                    capacity,
                    used: 0,
                    keys: Vec::new(),
                    at: Vec::new(),
                    vals: Vec::new(),
                    free: Vec::new(),
                }
            }

            fn find(&self, slot: u32) -> Result<usize, usize> {
                self.keys.binary_search(&slot)
            }

            fn entry(&self, i: usize) -> &Entry {
                &self.vals[self.at[i] as usize]
            }

            fn entry_mut(&mut self, i: usize) -> &mut Entry {
                &mut self.vals[self.at[i] as usize]
            }

            fn data(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
                (0..self.keys.len()).map(|i| (self.keys[i], self.entry(i).bytes))
            }

            fn insert(&mut self, slot: u32, bytes: u64, round: u64, next_use: u64) {
                let entry = Entry {
                    bytes,
                    inserted_at: round,
                    next_use,
                };
                match self.find(slot) {
                    Ok(i) => {
                        self.used -= self.entry(i).bytes;
                        *self.entry_mut(i) = entry;
                    }
                    Err(i) => {
                        let at = match self.free.pop() {
                            Some(at) => {
                                self.vals[at as usize] = entry;
                                at
                            }
                            None => {
                                self.vals.push(entry);
                                u32_from_usize(self.vals.len() - 1)
                            }
                        };
                        self.keys.insert(i, slot);
                        self.at.insert(i, at);
                    }
                }
                self.used += bytes;
            }

            fn touch(&mut self, slot: u32, next_use: u64) {
                if let Ok(i) = self.find(slot) {
                    self.entry_mut(i).next_use = next_use;
                }
            }

            fn remove(&mut self, slot: u32) -> Option<u64> {
                let i = self.find(slot).ok()?;
                self.keys.remove(i);
                let at = self.at.remove(i);
                self.free.push(at);
                let bytes = self.vals[at as usize].bytes;
                self.used -= bytes;
                Some(bytes)
            }

            fn pick_victims(
                &self,
                kind: EvictionKind,
                now: u64,
                deficit: u64,
                pinned: &dyn Fn(u32) -> bool,
            ) -> Vec<u32> {
                let mut scored: Vec<(u128, u32, u64)> = (0..self.keys.len())
                    .map(|i| (self.keys[i], self.entry(i)))
                    .filter(|&(s, _)| !pinned(s))
                    .map(|(s, e)| {
                        let score: u128 = match kind {
                            EvictionKind::InvalidOccupation => {
                                let wait = if e.next_use == u64::MAX {
                                    u64::MAX / 2
                                } else {
                                    e.next_use.saturating_sub(now) + 1
                                };
                                (wait as u128) * (e.bytes.max(1) as u128)
                            }
                            EvictionKind::Fifo => u128::MAX - e.inserted_at as u128,
                        };
                        (score, s, e.bytes)
                    })
                    .collect();
                scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut out = Vec::new();
                let mut freed = 0u64;
                for (_, s, bytes) in scored {
                    if freed >= deficit {
                        break;
                    }
                    freed += bytes;
                    out.push(s);
                }
                out
            }
        }

        const KINDS: [EvictionKind; 2] = [EvictionKind::InvalidOccupation, EvictionKind::Fifo];

        /// A next-use round: mostly near the current round, sometimes
        /// "never", so invalid-occupation scores collide and tie-break.
        fn next_use(rng: &mut Rng64, round: u64) -> u64 {
            if rng.chance(0.2) {
                u64::MAX
            } else {
                round + rng.below_u64(8)
            }
        }

        fn assert_same(got: &BufferState, want: &SortedBuffer, step: usize) {
            assert_eq!(got.used(), want.used, "step {step}: used");
            assert_eq!(got.len(), want.keys.len(), "step {step}: len");
            assert_eq!(got.is_empty(), want.keys.is_empty(), "step {step}");
            assert_eq!(
                got.data().collect::<Vec<_>>(),
                want.data().collect::<Vec<_>>(),
                "step {step}: data() order"
            );
        }

        /// One seeded run of `steps` random operations on both layouts.
        fn run(seed: u64, capacity: u64, slots: usize, steps: usize) {
            let mut rng = Rng64::new(seed);
            let mut got = BufferState::new(capacity);
            let mut want = SortedBuffer::new(capacity);
            let mut round = 0u64;
            for step in 0..steps {
                let slot = u32_from_usize(rng.below(slots));
                match rng.below(6) {
                    // Insert, making room first the way the simulator does;
                    // a resident slot is re-inserted in place.
                    0 | 1 => {
                        let bytes = rng.below_u64(capacity / 4 + 2);
                        let kind = KINDS[rng.below(KINDS.len())];
                        let free = got.free();
                        assert_eq!(free, want.capacity - want.used, "step {step}");
                        if bytes > free {
                            let pinned = |s: u32| s == slot;
                            let a = got.pick_victims(kind, round, bytes - free, &pinned);
                            let b = want.pick_victims(kind, round, bytes - free, &pinned);
                            assert_eq!(a, b, "step {step}: victims before insert");
                            for v in a {
                                assert_eq!(got.remove(v), want.remove(v), "step {step}");
                            }
                        }
                        // `insert` requires the new size to fit on top of
                        // what is resident, re-inserts included.
                        if got.free() >= bytes {
                            let nu = next_use(&mut rng, round);
                            got.insert(slot, bytes, round, nu);
                            want.insert(slot, bytes, round, nu);
                        }
                    }
                    2 => {
                        let nu = next_use(&mut rng, round);
                        got.touch(slot, nu);
                        want.touch(slot, nu);
                    }
                    3 => assert_eq!(got.remove(slot), want.remove(slot), "step {step}"),
                    4 => {
                        // A random pinned set of a few slots.
                        let pins: Vec<u32> = (0..rng.below(4))
                            .map(|_| u32_from_usize(rng.below(slots)))
                            .collect();
                        let pinned = |s: u32| pins.contains(&s);
                        let deficit = rng.below_u64(capacity + 2);
                        for kind in KINDS {
                            assert_eq!(
                                got.pick_victims(kind, round, deficit, &pinned),
                                want.pick_victims(kind, round, deficit, &pinned),
                                "step {step}: {kind:?} victims"
                            );
                        }
                    }
                    _ => round += rng.below_u64(3),
                }
                assert_eq!(got.contains(slot), want.find(slot).is_ok(), "step {step}");
                assert_same(&got, &want, step);
            }
        }

        /// The top unpinned entry alone covers a deficit up to its own size;
        /// one byte more needs the heap. Deficits just below, at and just
        /// above the top entry's bytes (and zero) must pick what the sorted
        /// reference picks, on seeded random buffers and pinned sets.
        #[test]
        fn deficits_around_the_top_entry_match_the_sorted_reference() {
            let mut checked = 0;
            for seed in 0..200u64 {
                let mut rng = Rng64::new(0x70b_e417 + seed);
                let capacity = 4096;
                let mut got = BufferState::new(capacity);
                let mut want = SortedBuffer::new(capacity);
                let round = rng.below_u64(4);
                for _ in 0..rng.below(24) {
                    let slot = u32_from_usize(rng.below(64));
                    let bytes = rng.below_u64(400);
                    if got.free() >= bytes && !got.contains(slot) {
                        let nu = next_use(&mut rng, round);
                        let at = rng.below_u64(4);
                        got.insert(slot, bytes, at, nu);
                        want.insert(slot, bytes, at, nu);
                    }
                }
                let pins: Vec<u32> = (0..rng.below(3))
                    .map(|_| u32_from_usize(rng.below(64)))
                    .collect();
                let pinned = |s: u32| pins.contains(&s);
                for kind in KINDS {
                    let Some(&top) = want.pick_victims(kind, round, 1, &pinned).first() else {
                        continue;
                    };
                    let top_bytes = want.data().find(|&(s, _)| s == top).map_or(0, |(_, b)| b);
                    for deficit in [0, top_bytes.saturating_sub(1), top_bytes, top_bytes + 1] {
                        assert_eq!(
                            got.pick_victims(kind, round, deficit, &pinned),
                            want.pick_victims(kind, round, deficit, &pinned),
                            "seed {seed}: {kind:?}, deficit {deficit}, top {top_bytes} B"
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked > 1000, "only {checked} cases had a victim");
        }

        #[test]
        fn slot_indexed_buffer_matches_the_sorted_reference() {
            for seed in 0..40u64 {
                let capacity = [0, 1, 64, 1000, 4096][usize::try_from(seed % 5).unwrap_or(0)];
                let slots = [4, 16, 64, 300][usize::try_from(seed % 4).unwrap_or(0)];
                run(0xb0ff_e400 + seed, capacity, slots, 600);
            }
        }
    }
}
