//! Dense index sets, lane-buffer occupancy counters and the source-queue
//! slab for the engine's occupancy-scaled hot loop.
//!
//! The engine keeps three active sets so its per-cycle cost tracks
//! *occupancy* (in-flight worms, nonempty sources, claimed channels)
//! instead of network size:
//!
//! * injectable sources — nodes whose FCFS queue is nonempty while the
//!   injection channel is idle;
//! * owned lanes — indexed by *plane*, transmit-order position first, so
//!   a sweep visits them in reverse-topological order;
//! * active packets — already a dense list in the engine itself.
//!
//! [`DenseBitSet`] backs the first two: membership flips are O(1) and
//! ascending-order iteration costs O(words + members), where `words` is
//! `capacity / 64` — a handful of cache lines even for thousands of
//! channels, and far cheaper than touching every lane or source.
//! Iteration order is always ascending index, which is what keeps the
//! optimized engine's request ordering (and thus its RNG stream)
//! bit-identical to the reference engine's full scans.

/// The one shrink rule for reused state: empty `v`, and give its allocation
/// back when the coming run needs under a quarter of it — a daemon worker
/// that once served a 16k-terminal job must not stay that large for life.
pub(crate) fn trim<T>(v: &mut Vec<T>, want: usize) {
    v.clear();
    if want < v.capacity() / 4 {
        v.shrink_to(want);
    }
}

/// [`trim`], then fill `v` with `n` copies of `fill`.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    trim(v, n);
    v.resize(n, fill);
}

/// Every lane's flit buffer, as its occupancy. A lane buffers flits of
/// its owning worm only, and a worm's flits pass through in order, so
/// what a buffer holds is always a run of consecutive flits of one packet:
/// a bounded FIFO of them is a counter, at any `depth`. Which flit sits at
/// either end follows from the worm's chain (see `Engine::move_flit`).
#[derive(Clone, Debug, Default)]
pub struct LaneBufs {
    len: Vec<u16>,
    depth: u16,
}

impl LaneBufs {
    /// Empty all buffers and re-dimension for `lanes` lanes of `depth`
    /// flits each, keeping the allocation when dimensions allow.
    pub fn reset(&mut self, lanes: usize, depth: u16) {
        assert!(depth >= 1, "a channel buffer holds at least one flit");
        self.depth = depth;
        refill(&mut self.len, lanes, 0);
    }

    /// Heap bytes held (capacity × element size).
    pub fn approx_bytes(&self) -> usize {
        self.len.capacity() * 2
    }

    /// Whether lane `li` buffers no flit.
    #[inline]
    pub fn is_empty(&self, li: usize) -> bool {
        self.len[li] == 0
    }

    /// Whether lane `li`'s buffer is full.
    #[inline]
    pub fn is_full(&self, li: usize) -> bool {
        self.len[li] == self.depth
    }

    /// Remove lane `li`'s oldest flit; `false` if it buffers none.
    #[inline]
    #[must_use]
    pub fn pop(&mut self, li: usize) -> bool {
        let had = self.len[li] != 0;
        self.len[li] -= u16::from(had);
        had
    }

    /// Buffer one more flit in lane `li` and return the new occupancy, or
    /// `None` (dropping the flit) if the buffer is full — the engine
    /// checks [`LaneBufs::is_full`] before moving a flit and treats a
    /// refused push as a violated invariant, surfaced as a typed error
    /// rather than a panic.
    #[inline]
    #[must_use]
    pub fn push(&mut self, li: usize) -> Option<u16> {
        if self.len[li] == self.depth {
            return None;
        }
        self.len[li] += 1;
        Some(self.len[li])
    }

    /// Empty lane `li`, returning how many flits it buffered.
    pub fn drain(&mut self, li: usize) -> u32 {
        u32::from(std::mem::take(&mut self.len[li]))
    }
}

/// A message waiting in its source's FCFS queue: destination, length in
/// flits, generation cycle, script/chain index (`u32::MAX` for Poisson).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct QueuedMsg {
    pub dst: u32,
    pub len: u32,
    pub gen_time: u64,
    pub tag: u32,
}

/// Every node's FCFS message queue, as linked lists threaded through
/// **one** slab: `head` / `tail` / `len` are per-node arrays, `msgs` and
/// `next` the slab, and freed slots chain through `next` from `free`. No
/// per-node heap allocation exists, so the footprint is 12 bytes a node
/// plus 28 per message ever queued at once.
#[derive(Clone, Debug, Default)]
pub(crate) struct MsgQueues {
    head: Vec<u32>,
    tail: Vec<u32>,
    len: Vec<u32>,
    msgs: Vec<QueuedMsg>,
    next: Vec<u32>,
    free: u32,
}

const NIL: u32 = u32::MAX;

impl MsgQueues {
    /// Empty every queue and re-dimension for `nodes` nodes.
    pub fn reset(&mut self, nodes: usize) {
        refill(&mut self.head, nodes, NIL);
        refill(&mut self.tail, nodes, NIL);
        refill(&mut self.len, nodes, 0);
        trim(&mut self.msgs, nodes);
        trim(&mut self.next, nodes);
        self.free = NIL;
    }

    /// Heap bytes held (capacities × element size).
    pub fn approx_bytes(&self) -> usize {
        (self.head.capacity() + self.tail.capacity() + self.len.capacity()) * 4
            + self.msgs.capacity() * std::mem::size_of::<QueuedMsg>()
            + self.next.capacity() * 4
    }

    /// Append `msg` to `node`'s queue; returns the queue's new length.
    pub fn push_back(&mut self, node: u32, msg: QueuedMsg) -> usize {
        let slot = if self.free == NIL {
            self.msgs.push(msg);
            self.next.push(NIL);
            (self.msgs.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = std::mem::replace(&mut self.next[s as usize], NIL);
            self.msgs[s as usize] = msg;
            s
        };
        let n = node as usize;
        if self.len[n] == 0 {
            self.head[n] = slot;
        } else {
            self.next[self.tail[n] as usize] = slot;
        }
        self.tail[n] = slot;
        self.len[n] += 1;
        self.len[n] as usize
    }

    /// The oldest message queued at `node`, if any.
    #[inline]
    pub fn front(&self, node: u32) -> Option<&QueuedMsg> {
        (self.len[node as usize] != 0).then(|| &self.msgs[self.head[node as usize] as usize])
    }

    /// Remove and return the oldest message queued at `node`.
    pub fn pop_front(&mut self, node: u32) -> Option<QueuedMsg> {
        let n = node as usize;
        if self.len[n] == 0 {
            return None;
        }
        let slot = self.head[n] as usize;
        self.head[n] = std::mem::replace(&mut self.next[slot], self.free);
        self.free = slot as u32;
        self.len[n] -= 1;
        Some(self.msgs[slot])
    }
}

/// Word-level iterator over the set bits of a `u64` word slice, in
/// ascending index order.
///
/// This is the one scan primitive behind every bitset traversal in the
/// engine ([`DenseBitSet::iter_set`]): it walks whole words and extracts
/// members with `trailing_zeros`, so a sweep costs O(words + members)
/// regardless of how the members cluster.
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next_word: usize,
    /// Remaining bits of the current word (already consumed bits cleared).
    current: u64,
    /// Bit index of the current word's bit 0.
    base: u32,
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            let &w = self.words.get(self.next_word)?;
            self.base = (self.next_word * 64) as u32;
            self.next_word += 1;
            self.current = w;
        }
        let b = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.base + b)
    }
}

/// A fixed-capacity bitset over dense `u32` indices with ascending
/// iteration.
#[derive(Clone, Debug, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
}

impl DenseBitSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Empty the set and re-dimension it for indices `0..capacity`,
    /// keeping the word allocation when it suffices (the engine-state
    /// pool resets in place between runs).
    pub fn reset(&mut self, capacity: usize) {
        refill(&mut self.words, capacity.div_ceil(64), 0);
    }

    /// Heap bytes held (capacity × word size).
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Replace the members by the set bits of `words`, which must be as
    /// long as the set's own (a compiled fault epoch's dead-plane mask).
    pub fn load(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
    }

    /// Grow the capacity to at least `capacity` indices, preserving the
    /// current members (the engine's per-packet-slot set grows with the
    /// slot table). Never shrinks.
    pub fn grow(&mut self, capacity: usize) {
        let want = capacity.div_ceil(64);
        if want > self.words.len() {
            self.words.resize(want, 0);
        }
    }

    /// Insert `i`. Idempotent.
    #[inline]
    pub fn set(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1u64 << (i % 64);
    }

    /// Remove `i`. Idempotent.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        self.words[i as usize / 64] &= !(1u64 << (i % 64));
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.words[i as usize / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of 64-bit words backing the set.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The raw word at index `w` (bits `64·w .. 64·w+63`). Word-blocked
    /// sweeps (the engine's ready-channel kernel) re-read a word between
    /// members so bits set *ahead of the cursor* during the sweep are
    /// still caught within the same pass.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Whether no index is set. A word-level scan — the quiescence-style
    /// checks use this instead of iterating members.
    #[inline]
    pub fn is_empty_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word-level iterator over the members in ascending order.
    #[inline]
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits { words: &self.words, next_word: 0, current: 0, base: 0 }
    }

    /// Call `f` on each member in ascending order. `f` must not mutate
    /// the set (enforced by the shared borrow).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for i in self.iter_set() {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_bufs_count_a_bounded_fifo() {
        let mut b = LaneBufs::default();
        b.reset(3, 2);
        assert!(b.is_empty(0) && !b.is_full(0));
        assert_eq!(b.push(1), Some(1));
        assert_eq!(b.push(1), Some(2));
        assert!(b.is_full(1));
        assert!(b.is_empty(0) && b.is_empty(2), "lanes are independent");
        assert_eq!(b.push(1), None, "full lane refuses the flit");
        assert!(b.is_full(1), "refused push leaves the buffer intact");
        assert!(b.pop(1));
        assert_eq!(b.push(1), Some(2), "a pop makes room for one");
        assert!(b.pop(1) && b.pop(1));
        assert!(!b.pop(1) && b.is_empty(1), "empty lane has nothing to pop");
        assert_eq!(b.push(2), Some(1));
        assert_eq!((b.drain(2), b.drain(2)), (1, 0));
    }

    #[test]
    fn lane_bufs_reset_empties_and_redimensions() {
        let mut b = LaneBufs::default();
        b.reset(2, 1);
        assert_eq!(b.push(0), Some(1));
        assert!(b.is_full(0));
        b.reset(4, 3);
        assert_eq!((b.depth, b.len.len()), (3, 4));
        for li in 0..4 {
            assert!(b.is_empty(li));
        }
    }

    #[test]
    fn lane_bufs_deepest_buffer_counts_without_overflow() {
        let mut b = LaneBufs::default();
        b.reset(1, u16::MAX);
        for n in 1..=u16::MAX {
            assert_eq!(b.push(0), Some(n));
        }
        assert!(b.is_full(0));
        assert_eq!(b.push(0), None);
        assert!(b.pop(0) && !b.is_full(0));
        assert_eq!(b.push(0), Some(u16::MAX));
        assert_eq!(b.drain(0), u32::from(u16::MAX));
        assert!(b.is_empty(0));
    }

    #[test]
    fn refill_releases_only_oversized_allocations() {
        let mut v: Vec<u32> = Vec::with_capacity(1000);
        refill(&mut v, 250, 7);
        assert!(v.capacity() >= 1000, "a quarter or more of the capacity: kept");
        refill(&mut v, 249, 7);
        assert!(v.capacity() < 500 && v == vec![7; 249]);
    }

    fn msg(tag: u32) -> QueuedMsg {
        QueuedMsg {
            dst: tag % 7,
            len: 1 + tag % 5,
            gen_time: u64::from(tag) * 3,
            tag,
        }
    }

    // The slab is a `Vec<VecDeque<_>>` in disguise: enqueue, dequeue and
    // the front-peek-then-pop of undeliverable refusal, interleaved across
    // nodes (with resets between runs), order and contents.
    proptest::proptest! {
        #[test]
        fn msg_queues_equal_a_vecdeque_model(
            nodes in 1usize..6,
            ops in proptest::collection::vec((0u8..8, 0u32..6), 0..400),
        ) {
            use std::collections::VecDeque;
            let mut q = MsgQueues::default();
            q.reset(nodes);
            let mut model = vec![VecDeque::new(); nodes];
            let mut high_water = 0;
            for (tag, (op, node)) in ops.into_iter().enumerate() {
                let node = node % nodes as u32;
                let m = &mut model[node as usize];
                match op {
                    0..=3 => {
                        m.push_back(msg(tag as u32));
                        proptest::prop_assert_eq!(q.push_back(node, msg(tag as u32)), m.len());
                    }
                    4 | 5 => proptest::prop_assert_eq!(q.pop_front(node), m.pop_front()),
                    6 => {
                        // Refusal: drop queue heads until one is "deliverable".
                        while q.front(node).is_some_and(|f| f.tag % 2 == 1) {
                            proptest::prop_assert_eq!(q.pop_front(node), m.pop_front());
                        }
                    }
                    _ => {
                        q.reset(nodes);
                        model.iter_mut().for_each(VecDeque::clear);
                        high_water = 0;
                    }
                }
                for (n, m) in model.iter().enumerate() {
                    proptest::prop_assert_eq!(q.front(n as u32), m.front());
                }
                high_water = high_water.max(model.iter().map(VecDeque::len).sum());
                proptest::prop_assert_eq!(q.msgs.len(), high_water, "freed slots are reused first");
            }
            // Drain: FCFS order survives slot recycling.
            for (n, m) in model.iter_mut().enumerate() {
                while let Some(want) = m.pop_front() {
                    proptest::prop_assert_eq!(q.pop_front(n as u32), Some(want));
                }
                proptest::prop_assert_eq!(q.pop_front(n as u32), None);
            }
        }
    }

    #[test]
    fn set_clear_contains() {
        let mut s = DenseBitSet::with_capacity(130);
        assert!(!s.contains(0));
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        s.clear(64);
        assert!(!s.contains(64));
        s.set(0); // idempotent
        assert!(s.contains(0));
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut s = DenseBitSet::with_capacity(200);
        let members = [199u32, 3, 64, 65, 0, 127, 128, 31];
        for &m in &members {
            s.set(m);
        }
        let got: Vec<u32> = s.iter_set().collect();
        let mut want: Vec<u32> = members.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        let mut via_fn = Vec::new();
        s.for_each(|i| via_fn.push(i));
        assert_eq!(via_fn, want);
    }

    #[test]
    fn word_access_matches_membership() {
        let mut s = DenseBitSet::with_capacity(130);
        assert_eq!(s.num_words(), 3);
        s.set(1);
        s.set(64);
        s.set(129);
        assert_eq!(s.word(0), 1u64 << 1);
        assert_eq!(s.word(1), 1u64 << 0);
        assert_eq!(s.word(2), 1u64 << 1);
        s.clear(64);
        assert_eq!(s.word(1), 0);
    }

    #[test]
    fn set_bits_crosses_word_boundaries() {
        // Members straddling every word seam of a 3-word set, including
        // both sides of each boundary (63|64, 127|128).
        let mut s = DenseBitSet::with_capacity(192);
        let members = [0u32, 62, 63, 64, 65, 126, 127, 128, 191];
        for &m in &members {
            s.set(m);
        }
        assert_eq!(s.iter_set().collect::<Vec<_>>(), members);
        // A fully-set middle word between sparse neighbours.
        let mut s = DenseBitSet::with_capacity(192);
        s.set(5);
        for i in 64..128 {
            s.set(i);
        }
        s.set(130);
        let got: Vec<u32> = s.iter_set().collect();
        assert_eq!(got.len(), 66);
        assert_eq!(got[0], 5);
        assert_eq!(&got[1..65], (64..128).collect::<Vec<_>>().as_slice());
        assert_eq!(got[65], 130);
    }

    #[test]
    fn set_bits_trailing_partial_word() {
        // Capacity 150 leaves a 22-bit tail in the third word; the
        // iterator must stop at the last member, and the unused high
        // bits of the trailing word stay zero.
        let mut s = DenseBitSet::with_capacity(150);
        s.set(149);
        s.set(128);
        assert_eq!(s.iter_set().collect::<Vec<_>>(), vec![128, 149]);
        assert_eq!(s.word(2) >> 22, 0, "no bits beyond the capacity tail");
        s.clear(149);
        s.clear(128);
        assert!(s.is_empty_set());
    }

    #[test]
    fn load_replaces_the_members() {
        let mut s = DenseBitSet::with_capacity(256);
        s.set(5);
        s.load(&[0, 1 << 3 | 1 << 63, 0, 1]);
        assert_eq!(s.iter_set().collect::<Vec<_>>(), vec![67, 127, 192]);
        s.load(&[0; 4]);
        assert!(s.is_empty_set());
    }

    #[test]
    fn grow_preserves_members() {
        let mut s = DenseBitSet::with_capacity(10);
        s.set(9);
        s.grow(200);
        assert!(s.contains(9));
        assert_eq!(s.num_words(), 4);
        s.set(199);
        assert_eq!(s.iter_set().collect::<Vec<_>>(), vec![9, 199]);
        s.grow(50); // never shrinks
        assert_eq!(s.num_words(), 4);
    }

    #[test]
    fn is_empty_set_tracks_membership() {
        let mut s = DenseBitSet::with_capacity(130);
        assert!(s.is_empty_set());
        s.set(129);
        assert!(!s.is_empty_set());
        s.clear(129);
        assert!(s.is_empty_set());
    }

    #[test]
    fn empty_and_full_words() {
        let s = DenseBitSet::with_capacity(0);
        assert_eq!(s.iter_set().next(), None);

        let mut s = DenseBitSet::with_capacity(64);
        for i in 0..64 {
            s.set(i);
        }
        assert_eq!(s.iter_set().collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
    }
}
