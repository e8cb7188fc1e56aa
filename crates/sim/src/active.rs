//! Dense index sets, lane buffers (a full bit, and a counter past one
//! flit) and the source queues (fixed chunks of 16-byte records) for the
//! engine's occupancy-scaled hot loop.
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

/// Every lane's flit buffer: the `full` mask the transmit sweep combines
/// and, where a buffer holds more than one flit, its occupancy. A lane
/// buffers flits of its owning worm only, and a worm's flits pass through
/// in order, so what a buffer holds is always a run of consecutive flits
/// of one packet: a bounded FIFO of them is a counter, at any `depth`.
/// At the paper's one-flit buffers (§5) a counter would say no more than
/// the mask bit, so there is none: the bit is the whole buffer. Which
/// flit sits at either end follows from the worm's chain (see
/// `Engine::move_flit`).
#[derive(Clone, Debug, Default)]
pub struct LaneBufs {
    /// Bit `li` ⟺ lane `li`'s buffer is full (at depth 1: holds a flit).
    full: DenseBitSet,
    /// Per lane, the flits buffered; dimensioned only when `depth > 1`.
    len: Vec<u16>,
    depth: u16,
}

impl LaneBufs {
    /// Empty all buffers and re-dimension for `lanes` lanes of `depth`
    /// flits each, keeping the allocation when dimensions allow.
    pub fn reset(&mut self, lanes: usize, depth: u16) {
        assert!(depth >= 1, "a channel buffer holds at least one flit");
        self.depth = depth;
        self.full.reset(lanes);
        refill(&mut self.len, if depth > 1 { lanes } else { 0 }, 0);
    }

    /// Heap bytes held (capacities × element size).
    pub fn approx_bytes(&self) -> usize {
        self.full.approx_bytes() + self.len.capacity() * 2
    }

    /// Whether the buffers keep counters: only deeper than one flit.
    #[inline]
    fn counted(&self) -> bool {
        self.depth > 1
    }

    /// Whether lane `li` buffers no flit.
    #[inline]
    pub fn is_empty(&self, li: usize) -> bool {
        if self.counted() {
            self.len[li] == 0
        } else {
            !self.full.contains(li as u32)
        }
    }

    /// Whether lane `li`'s buffer is full.
    #[inline]
    pub fn is_full(&self, li: usize) -> bool {
        self.full.contains(li as u32)
    }

    /// The `full` mask's word `w` (lanes `64·w .. 64·w+63`), for the
    /// transmit sweep's ready combine.
    #[inline]
    pub fn full_word(&self, w: usize) -> u64 {
        self.full.word(w)
    }

    /// Remove lane `li`'s oldest flit and return how many it still
    /// buffers; `None` if it buffered none.
    #[inline]
    #[must_use]
    pub fn pop(&mut self, li: usize) -> Option<u16> {
        if !self.counted() {
            return self.full.take(li as u32).then_some(0);
        }
        let len = &mut self.len[li];
        *len = len.checked_sub(1)?;
        self.full.clear(li as u32);
        Some(*len)
    }

    /// Buffer one more flit in lane `li` and return the new occupancy, or
    /// `None` (dropping the flit) if the buffer is full — the engine
    /// checks [`LaneBufs::is_full`] before moving a flit and treats a
    /// refused push as a violated invariant, surfaced as a typed error
    /// rather than a panic.
    #[inline]
    #[must_use]
    pub fn push(&mut self, li: usize) -> Option<u16> {
        if self.full.contains(li as u32) {
            return None;
        }
        let len = if self.counted() {
            self.len[li] += 1;
            self.len[li]
        } else {
            1
        };
        if len == self.depth {
            self.full.set(li as u32);
        }
        Some(len)
    }

    /// Empty lane `li`, returning how many flits it buffered.
    pub fn drain(&mut self, li: usize) -> u32 {
        if !self.counted() {
            return u32::from(self.full.take(li as u32));
        }
        self.full.clear(li as u32);
        u32::from(std::mem::take(&mut self.len[li]))
    }

    /// Debug-only audit: every `full` bit is `len == depth` where there
    /// are counters, and there are none at depth 1.
    #[cfg(debug_assertions)]
    pub(crate) fn check_full_mask(&self) {
        assert!(self.counted() || self.len.is_empty(), "counters at depth 1");
        for (li, &len) in self.len.iter().enumerate() {
            assert_eq!(self.full.contains(li as u32), len == self.depth, "full lane {li}");
        }
    }
}

/// A message waiting in its source's FCFS queue: destination, length in
/// flits, generation cycle. A script or chain message's index travels
/// beside it as its tag (see [`MsgQueues::push_back`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct QueuedMsg {
    pub dst: u32,
    pub len: u32,
    pub gen_time: u64,
}

/// Messages a [`MsgQueues`] chunk holds.
const CHUNK: usize = 256;

/// One fixed block of queue slots: slot `c · CHUNK + i` is `msgs[i]` of
/// chunk `c`, and `next[i]` its link — to the next message of its queue,
/// or along the free list.
#[derive(Debug)]
struct Chunk {
    msgs: [QueuedMsg; CHUNK],
    next: [u32; CHUNK],
}

/// Every node's FCFS message queue, as circular linked lists threaded
/// through slots in fixed chunks: `tail` / `len` are per-node arrays, the
/// tail's link is the queue's head, and freed slots chain from `free`
/// through the chunks' own links. No per-node heap allocation exists, so
/// the footprint is 8 bytes a node plus 20 per message ever queued at
/// once (a 16-byte record and its link), rounded up to whole chunks. A
/// chunk never moves once allocated: a saturated run's queues grow by
/// one more chunk, never by copying the ones it has. Tags live in a side array that grows only
/// under tagged pushes (an untagged one clears a slot a tagged one
/// wrote since the reset), so a Poisson run allocates none.
#[derive(Debug, Default)]
pub(crate) struct MsgQueues {
    /// The newest message's slot; its link closes the circle at the
    /// oldest. Stale while the queue is empty.
    tail: Vec<u32>,
    len: Vec<u32>,
    chunks: Vec<Box<Chunk>>,
    /// Slots handed out since the reset; those below it and in no queue
    /// are on the free list.
    used: u32,
    free: u32,
    /// Tag by slot, as far as a tagged push has written; a slot past its
    /// end is untagged.
    tags: Vec<u32>,
}

const NIL: u32 = u32::MAX;

impl MsgQueues {
    /// Empty every queue and re-dimension for `nodes` nodes. The chunk
    /// count follows [`trim`]'s rule: chunks beyond what `nodes` messages
    /// need are given back when that is under a quarter of them.
    pub fn reset(&mut self, nodes: usize) {
        refill(&mut self.tail, nodes, NIL);
        refill(&mut self.len, nodes, 0);
        let want = nodes.div_ceil(CHUNK);
        if want < self.chunks.len() / 4 {
            self.chunks.truncate(want);
            self.chunks.shrink_to(want);
        }
        trim(&mut self.tags, nodes);
        (self.used, self.free) = (0, NIL);
    }

    /// Heap bytes held (capacities × element size).
    pub fn approx_bytes(&self) -> usize {
        (self.tail.capacity() + self.len.capacity() + self.tags.capacity()) * 4
            + self.chunks.len() * std::mem::size_of::<Chunk>()
            + self.chunks.capacity() * std::mem::size_of::<Box<Chunk>>()
    }

    /// Append `msg` to `node`'s queue under `tag` (`u32::MAX`: none);
    /// returns the queue's new length.
    pub fn push_back(&mut self, node: u32, msg: QueuedMsg, tag: u32) -> usize {
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = std::mem::replace(self.link(s), NIL);
            s
        } else {
            if self.used as usize == self.chunks.len() * CHUNK {
                let fresh = Chunk { msgs: [QueuedMsg::default(); CHUNK], next: [NIL; CHUNK] };
                self.chunks.push(Box::new(fresh));
            }
            self.used += 1;
            self.used - 1
        };
        self.chunks[slot as usize / CHUNK].msgs[slot as usize % CHUNK] = msg;
        if tag != NIL || (slot as usize) < self.tags.len() {
            if slot as usize >= self.tags.len() {
                self.tags.resize(slot as usize + 1, NIL);
            }
            self.tags[slot as usize] = tag;
        }
        // The new tail links to the head: itself in an empty queue, else
        // the old tail's link, which it takes over.
        let n = node as usize;
        let head = if self.len[n] == 0 {
            slot
        } else {
            std::mem::replace(self.link(self.tail[n]), slot)
        };
        *self.link(slot) = head;
        self.tail[n] = slot;
        self.len[n] += 1;
        self.len[n] as usize
    }

    /// The oldest message queued at `node`, if any.
    #[inline]
    pub fn front(&self, node: u32) -> Option<QueuedMsg> {
        let n = node as usize;
        (self.len[n] != 0).then(|| {
            let head = self.next(self.tail[n]) as usize;
            self.chunks[head / CHUNK].msgs[head % CHUNK]
        })
    }

    /// Remove and return the oldest message queued at `node`, with its
    /// tag.
    pub fn pop_front(&mut self, node: u32) -> Option<(QueuedMsg, u32)> {
        let n = node as usize;
        if self.len[n] == 0 {
            return None;
        }
        let slot = self.next(self.tail[n]);
        let free = self.free;
        let after = std::mem::replace(self.link(slot), free);
        // A queue of one leaves its tail stale; else the tail links past
        // the popped head.
        if self.len[n] > 1 {
            *self.link(self.tail[n]) = after;
        }
        self.free = slot;
        self.len[n] -= 1;
        let msg = self.chunks[slot as usize / CHUNK].msgs[slot as usize % CHUNK];
        Some((msg, self.tags.get(slot as usize).copied().unwrap_or(NIL)))
    }

    /// Slot `s`'s link.
    #[inline]
    fn next(&self, s: u32) -> u32 {
        self.chunks[s as usize / CHUNK].next[s as usize % CHUNK]
    }

    /// Slot `s`'s link, to write.
    #[inline]
    fn link(&mut self, s: u32) -> &mut u32 {
        &mut self.chunks[s as usize / CHUNK].next[s as usize % CHUNK]
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

    /// Remove `i`; whether it was in the set.
    #[inline]
    pub fn take(&mut self, i: u32) -> bool {
        let (w, bit) = (&mut self.words[i as usize / 64], 1u64 << (i % 64));
        let was = *w & bit != 0;
        *w &= !bit;
        was
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
        assert_eq!(b.pop(1), Some(1));
        assert_eq!(b.push(1), Some(2), "a pop makes room for one");
        assert_eq!((b.pop(1), b.pop(1)), (Some(1), Some(0)));
        assert!(b.pop(1).is_none() && b.is_empty(1), "empty lane has nothing to pop");
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
        b.reset(4, 1);
        assert!(b.len.is_empty(), "no counters at depth 1: the bit is the buffer");
        assert!((0..4).all(|li| b.is_empty(li) && !b.is_full(li)));
    }

    proptest::proptest! {
        // At every depth, push / pop / drain answer as a plain counter
        // would, and the `full` words the sweep reads are exactly the
        // lanes whose counter is at the depth — also after a reset from
        // a dirty state of another depth.
        #[test]
        fn lane_bufs_equal_a_counter_model(
            lanes in 1usize..150,
            depth in 1u16..=4,
            prior in 1u16..=4,
            ops in proptest::collection::vec((0u8..3, 0usize..150), 0..600),
        ) {
            let mut b = LaneBufs::default();
            b.reset(lanes, prior);
            for li in 0..lanes {
                proptest::prop_assert_eq!(b.push(li), Some(1));
            }
            b.reset(lanes, depth);
            let mut m = vec![0u16; lanes];
            for (op, li) in ops {
                let li = li % lanes;
                match op {
                    0 => {
                        let want = (m[li] < depth).then(|| {
                            m[li] += 1;
                            m[li]
                        });
                        proptest::prop_assert_eq!(b.push(li), want);
                    }
                    1 => {
                        let want = m[li].checked_sub(1);
                        m[li] = want.unwrap_or(0);
                        proptest::prop_assert_eq!(b.pop(li), want);
                    }
                    _ => proptest::prop_assert_eq!(b.drain(li), u32::from(std::mem::take(&mut m[li]))),
                }
                proptest::prop_assert_eq!(b.is_empty(li), m[li] == 0);
                proptest::prop_assert_eq!(b.is_full(li), m[li] == depth);
                for w in 0..lanes.div_ceil(64) {
                    let want = (w * 64..lanes.min(w * 64 + 64))
                        .filter(|&l| m[l] == depth)
                        .fold(0u64, |acc, l| acc | 1 << (l % 64));
                    proptest::prop_assert_eq!(b.full_word(w), want, "word {}", w);
                }
            }
            #[cfg(debug_assertions)]
            b.check_full_mask();
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
        assert!(b.pop(0) == Some(u16::MAX - 1) && !b.is_full(0));
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

    fn msg(i: u32) -> QueuedMsg {
        QueuedMsg { dst: i % 7, len: 1 + i % 5, gen_time: u64::from(i) * 3 }
    }

    // The queues are a `Vec<VecDeque<_>>` in disguise: enqueue, dequeue
    // and the front-peek-then-pop of undeliverable refusal, interleaved
    // across nodes (with resets between runs), order, contents and tags.
    // Every case first fills past one chunk, so links, frees and tags
    // cross chunk boundaries; tagged and untagged pushes share slots, so
    // a tag a freed slot kept would surface on an untagged message.
    proptest::proptest! {
        #[test]
        fn msg_queues_equal_a_vecdeque_model(
            nodes in 1usize..6,
            fill in 257usize..600,
            ops in proptest::collection::vec((0u8..16, 0u32..6, proptest::bool::ANY), 0..1200),
        ) {
            use std::collections::VecDeque;
            let mut q = MsgQueues::default();
            q.reset(nodes);
            let mut model = vec![VecDeque::new(); nodes];
            let (mut high_water, mut crossed) = (0, false);
            let fill_ops = (0..fill).map(|i| (0, i as u32, i % 3 == 0));
            for (i, (op, node, tagged)) in fill_ops.chain(ops).enumerate() {
                let node = node % nodes as u32;
                let m = &mut model[node as usize];
                let tag = if tagged { i as u32 } else { NIL };
                match op {
                    0..=8 => {
                        m.push_back((msg(i as u32), tag));
                        proptest::prop_assert_eq!(q.push_back(node, msg(i as u32), tag), m.len());
                    }
                    9..=12 => proptest::prop_assert_eq!(q.pop_front(node), m.pop_front()),
                    13 | 14 => {
                        // Refusal: drop queue heads until one is "deliverable".
                        while q.front(node).is_some_and(|f| f.dst % 2 == 1) {
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
                    proptest::prop_assert_eq!(q.front(n as u32), m.front().map(|&(f, _)| f));
                }
                high_water = high_water.max(model.iter().map(VecDeque::len).sum());
                crossed |= high_water > CHUNK;
                proptest::prop_assert_eq!(q.used as usize, high_water, "freed slots are reused first");
                proptest::prop_assert!(q.chunks.len() >= high_water.div_ceil(CHUNK));
            }
            proptest::prop_assert!(crossed, "the live count crossed a chunk boundary");
            // Drain: FCFS order and tags survive slot recycling.
            for (n, m) in model.iter_mut().enumerate() {
                while let Some(want) = m.pop_front() {
                    proptest::prop_assert_eq!(q.pop_front(n as u32), Some(want));
                }
                proptest::prop_assert_eq!(q.pop_front(n as u32), None);
            }
        }
    }

    #[test]
    fn msg_queues_reset_keeps_chunks_by_the_quarter_rule() {
        let mut q = MsgQueues::default();
        q.reset(4);
        for i in 0..8 * CHUNK as u32 {
            q.push_back(i % 4, msg(i), i);
        }
        assert_eq!(q.chunks.len(), 8);
        let at = |q: &MsgQueues| &*q.chunks[1] as *const Chunk;
        let second = at(&q);
        q.reset(300);
        assert_eq!(q.chunks.len(), 8, "two chunks wanted: not under a quarter of eight");
        assert_eq!(at(&q), second, "kept chunks do not move");
        assert_eq!((q.pop_front(0), q.tags.len()), (None, 0), "reset empties queues and tags");
        q.push_back(0, msg(1), NIL);
        assert_eq!(q.pop_front(0), Some((msg(1), NIL)), "a recycled slot is untagged");
        q.reset(4);
        assert_eq!(q.chunks.len(), 1, "one chunk wanted: under a quarter of eight");
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
        assert!(s.take(129) && !s.contains(129), "take removes a member");
        assert!(!s.take(129), "and answers false once it is gone");
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
