//! Phase 1, arrivals: Poisson, scripted and chained messages join their
//! source's FCFS queue. The phase owns [`Sources`] — the queues, the
//! arrival and release heaps, and the run's cursor into a finite
//! [`Traffic`] source.

use super::state::NONE;
use super::{Engine, Traffic};
use crate::active::{refill, trim, DenseBitSet, MsgQueues, QueuedMsg};
use crate::trace::{Observer, TraceEvent};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Source state: by node, the packet drawing flits from the source (the
/// one-port rule), the absolute time of the next Poisson arrival
/// (`f64::INFINITY` for silent nodes and finite sources) and the FCFS
/// queue; the event heaps; and the cursor into a finite source.
#[derive(Debug, Default)]
pub(super) struct Sources {
    pub(super) injecting: Vec<u32>,
    pub(super) next_arrival: Vec<f64>,
    pub(super) queues: MsgQueues,
    /// Pending Poisson arrivals: one key per node with a finite next
    /// arrival, [`ArrivalKeys::key`]`(⌈next_arrival⌉, node)`. Keys of due
    /// entries always carry the current cycle, so pops are node-ascending
    /// within a cycle.
    pub(super) arrivals: BinaryHeap<Reverse<u64>>,
    /// How `arrivals` packs its keys.
    pub(super) keys: ArrivalKeys,
    /// Pending chained-message releases, keyed `(release_time, index)`.
    pub(super) releases: BinaryHeap<Reverse<(u64, u32)>>,
    /// Bit `n` ⟺ source `n` has a queued message and an idle injector.
    pub(super) injectable: DenseBitSet,
    /// Messages sitting in source queues, across all sources.
    pub(super) queued: u64,
    /// A script's next message; the number of a chain's messages
    /// delivered so far.
    pub(super) cursor: usize,
}

/// The arrival heap's key: `cycle << bits | node` in one `u64`, `bits`
/// the width of the largest node id, so the key order is the `(cycle,
/// node)` order and an entry costs 8 bytes, not a 16-byte tuple. A cycle
/// past the horizon `end` is clamped to `end + 1`, which never fires; a
/// run whose `end + 1` does not fit above the node bits is refused before
/// it starts ([`ArrivalKeys::fit`]).
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct ArrivalKeys {
    bits: u32,
    never: u64,
}

impl ArrivalKeys {
    /// The packing for a run of `nodes` nodes to the horizon `end`, or
    /// `None` when `end + 1` does not fit above the node bits.
    pub(super) fn fit(nodes: u32, end: u64) -> Option<ArrivalKeys> {
        let bits = u32::BITS - nodes.saturating_sub(1).leading_zeros();
        let never = end.checked_add(1).filter(|&c| c <= u64::MAX >> bits)?;
        Some(ArrivalKeys { bits, never })
    }

    /// The key of an arrival at `node` in cycle `⌈t⌉`.
    #[inline]
    pub(super) fn key(self, t: f64, node: u32) -> u64 {
        (t.ceil() as u64).min(self.never) << self.bits | u64::from(node)
    }

    /// A key's `(cycle, node)`.
    #[inline]
    pub(super) fn split(self, key: u64) -> (u64, u32) {
        (key >> self.bits, (key & !(u64::MAX << self.bits)) as u32)
    }
}

impl Sources {
    /// Empty every source of `nodes` and prime the event heaps of
    /// `traffic`: a chain's roots, or one initial arrival per generating
    /// Poisson node, drawn in ascending node order — the first draws of
    /// the run's RNG stream, exactly as the reference engine makes them.
    /// `keys` packs the arrival heap's keys for this run.
    pub(super) fn reset(
        &mut self,
        traffic: Traffic<'_>,
        nodes: usize,
        keys: ArrivalKeys,
        rng: &mut SmallRng,
    ) {
        refill(&mut self.injecting, nodes, NONE);
        refill(&mut self.next_arrival, nodes, f64::INFINITY);
        self.queues.reset(nodes);
        trim_heap(&mut self.arrivals, nodes);
        trim_heap(&mut self.releases, nodes);
        self.keys = keys;
        self.injectable.reset(nodes);
        (self.queued, self.cursor) = (0, 0);
        match traffic {
            Traffic::Poisson(wl) => {
                for node in 0..nodes as u32 {
                    let rate = wl.message_rate(node);
                    if rate > 0.0 {
                        let t = poisson_gap(rng, rate);
                        self.next_arrival[node as usize] = t;
                        self.arrivals.push(Reverse(keys.key(t, node)));
                    }
                }
            }
            Traffic::Script(_) => {}
            Traffic::Chain(c) => self.releases.extend(c.roots.iter().copied()),
        }
    }

    pub(super) fn approx_bytes(&self) -> usize {
        4 * self.injecting.capacity()
            + 8 * self.next_arrival.capacity()
            + self.queues.approx_bytes()
            + 8 * self.arrivals.capacity()
            + 16 * self.releases.capacity()
            + self.injectable.approx_bytes()
    }
}

/// [`trim`] for an event heap.
fn trim_heap<T: Ord>(heap: &mut BinaryHeap<T>, want: usize) {
    let mut v = std::mem::take(heap).into_vec();
    trim(&mut v, want);
    *heap = BinaryHeap::from(v);
}

/// One exponential interarrival gap at `rate` messages a cycle, by
/// inversion: `-ln(u) / rate` with `u` uniform on (0, 1] — one RNG draw.
/// Both Poisson draws of the engine, the first arrival and every next
/// one, are this function.
#[inline]
fn poisson_gap(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

impl<O: Observer> Engine<'_, O> {
    /// Arrivals-phase enqueue of one message at `node` under `tag`, the
    /// same for all three traffic kinds.
    fn enqueue(&mut self, node: u32, msg: QueuedMsg, tag: u32, measuring: bool) {
        let (src, meas, now) = (&mut self.st.src, &mut self.st.meas, self.st.now);
        let QueuedMsg { dst, len, .. } = msg;
        let queued = src.queues.push_back(node, msg, tag);
        self.obs.on_event(TraceEvent::Queued { tag, time: now, src: node, dst, len });
        if measuring {
            meas.generated_pkts += 1;
            meas.generated_flits += u64::from(len);
            meas.max_queue = meas.max_queue.max(queued);
        }
        src.queued += 1;
        if src.injecting[node as usize] == NONE {
            src.injectable.set(node);
        }
    }

    pub(super) fn generate_arrivals(&mut self) {
        let (now, now_f) = (self.st.now, self.st.now as f64);
        let measuring = self.measuring();
        match self.traffic {
            Traffic::Poisson(wl) => {
                // Serve every matured node. A due entry's key always
                // equals `now` (keys are ⌈next_arrival⌉ computed when the
                // arrival was strictly in the future, and nothing is left
                // behind a cycle), so matured nodes come out in ascending
                // node order — the reference engine's scan order. A served
                // node's next key replaces its due one at the top: one
                // sift where a pop and a push took two, and — keys being
                // unique by their node bits — the same order of service.
                let keys = self.st.src.keys;
                while let Some(&Reverse(key)) = self.st.src.arrivals.peek() {
                    let (fire, node) = keys.split(key);
                    if fire > now {
                        break;
                    }
                    debug_assert_eq!(fire, now, "arrival missed its cycle");
                    while self.st.src.next_arrival[node as usize] <= now_f {
                        let dst = wl.draw_destination(node, &mut self.st.rng);
                        let len = wl.draw_length(&mut self.st.rng);
                        let msg = QueuedMsg { dst, len, gen_time: now };
                        self.enqueue(node, msg, NONE, measuring);
                        let gap = poisson_gap(&mut self.st.rng, wl.message_rate(node));
                        self.st.src.next_arrival[node as usize] += gap;
                    }
                    let next = self.st.src.next_arrival[node as usize];
                    if let Some(mut top) = self.st.src.arrivals.peek_mut() {
                        *top = Reverse(keys.key(next, node));
                    }
                }
            }
            Traffic::Script(s) => {
                while let Some(&m) = s.msgs.get(self.st.src.cursor).filter(|m| m.time <= now) {
                    let tag = self.st.src.cursor as u32;
                    self.st.src.cursor += 1;
                    let msg = QueuedMsg { dst: m.dst, len: m.len, gen_time: m.time };
                    self.enqueue(m.src, msg, tag, measuring);
                }
            }
            Traffic::Chain(c) => {
                // Due entries carry key == now (roots mature untouched;
                // dependents are released at ≥ delivery cycle + 1), so
                // pops are index-ascending — the reference's scan order.
                while let Some(&Reverse((t, i))) = self.st.src.releases.peek() {
                    if t > now {
                        break;
                    }
                    self.st.src.releases.pop();
                    let m = c.msgs[i as usize];
                    let msg = QueuedMsg { dst: m.dst, len: m.len, gen_time: t };
                    self.enqueue(m.src, msg, i, measuring);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ArrivalKeys;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Packed keys pop in the order of the `(cycle, node)` tuples they
    // replaced, cycle clamped at `end + 1` alike, and unpack to them: at
    // every node width (node counts from just past a power of two up to
    // the next), with the widest node id, `2^b − 1`, and — at the largest
    // horizon the packing holds — keys at its limit.
    proptest::proptest! {
        #[test]
        fn packed_keys_pop_in_tuple_order(
            bits in 0u32..=31,
            spread in 0u32..u32::MAX,
            at_limit in proptest::bool::ANY,
            short in 0u64..1_000,
            arrivals in proptest::collection::vec((0u64..1_200, 0u32..u32::MAX, 0u8..6), 1..300),
        ) {
            let nodes = match bits {
                0 => 1,
                b => (1 << (b - 1)) + 1 + spread % (1 << (b - 1)),
            };
            let limit = (u64::MAX >> bits) - 1;
            let end = if at_limit { limit } else { short };
            let keys = ArrivalKeys::fit(nodes, end).unwrap();
            proptest::prop_assert_eq!(keys.bits, bits);
            proptest::prop_assert!(ArrivalKeys::fit(nodes, limit + 1).is_none(), "past the limit");
            let (mut packed, mut tuples) = (BinaryHeap::new(), BinaryHeap::new());
            for &(back, raw, kind) in &arrivals {
                let node = match kind {
                    0 | 1 => nodes - 1,
                    2 => 0,
                    _ => raw % nodes,
                };
                // Around the horizon: due cycles, `end + 1` and past it.
                let cycle = end.saturating_add(200).saturating_sub(back);
                let t = cycle as f64 - [0.0, 0.5, 0.25][kind as usize % 3];
                let key = keys.key(t, node);
                let want = ((t.ceil() as u64).min(end + 1), node);
                proptest::prop_assert_eq!(keys.split(key), want);
                packed.push(Reverse(key));
                tuples.push(Reverse(want));
            }
            if at_limit {
                let last = keys.key(f64::INFINITY, nodes - 1);
                proptest::prop_assert_eq!(last, u64::MAX >> bits << bits | u64::from(nodes - 1));
                if nodes.is_power_of_two() {
                    proptest::prop_assert_eq!(last, u64::MAX, "the last key the packing holds");
                }
                packed.push(Reverse(last));
                tuples.push(Reverse((end + 1, nodes - 1)));
            }
            while let Some(Reverse(want)) = tuples.pop() {
                let Reverse(key) = packed.pop().unwrap();
                proptest::prop_assert_eq!(keys.split(key), want);
            }
            proptest::prop_assert!(packed.is_empty());
        }
    }
}
