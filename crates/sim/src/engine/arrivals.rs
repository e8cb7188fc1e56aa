//! Phase 1, arrivals: Poisson, scripted and chained messages join their
//! source's FCFS queue. The phase owns [`Sources`] — the queues, the
//! arrival and release heaps, and the run's cursor into a finite
//! [`Traffic`] source.

use super::state::NONE;
use super::{Engine, Traffic};
use crate::active::{refill, trim, DenseBitSet, MsgQueues, QueuedMsg};
use crate::trace::TraceEvent;
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
    /// Pending Poisson arrivals: one `(⌈next_arrival⌉, node)` entry per
    /// node with a finite next arrival. Keys of due entries always equal
    /// the current cycle, so pops are node-ascending within a cycle.
    pub(super) arrivals: BinaryHeap<Reverse<(u64, u32)>>,
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

impl Sources {
    /// Empty every source of `nodes` and prime the event heaps of
    /// `traffic`: a chain's roots, or one initial arrival per generating
    /// Poisson node, drawn in ascending node order — the first draws of
    /// the run's RNG stream, exactly as the reference engine makes them.
    pub(super) fn reset(&mut self, traffic: Traffic<'_>, nodes: usize, rng: &mut SmallRng) {
        refill(&mut self.injecting, nodes, NONE);
        refill(&mut self.next_arrival, nodes, f64::INFINITY);
        self.queues.reset(nodes);
        for heap in [&mut self.arrivals, &mut self.releases] {
            let mut v = std::mem::take(heap).into_vec();
            trim(&mut v, nodes);
            *heap = BinaryHeap::from(v);
        }
        self.injectable.reset(nodes);
        (self.queued, self.cursor) = (0, 0);
        match traffic {
            Traffic::Poisson(wl) => {
                for node in 0..nodes as u32 {
                    let rate = wl.message_rate(node);
                    if rate > 0.0 {
                        let t = poisson_gap(rng, rate);
                        self.next_arrival[node as usize] = t;
                        self.arrivals.push(Reverse((t.ceil() as u64, node)));
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
            + 16 * (self.arrivals.capacity() + self.releases.capacity())
            + self.injectable.approx_bytes()
    }
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

impl Engine<'_> {
    /// Arrivals-phase enqueue of one message at `node` under `tag`, the
    /// same for all three traffic kinds.
    fn enqueue(&mut self, node: u32, msg: QueuedMsg, tag: u32, measuring: bool) {
        let (src, meas, now) = (&mut self.st.src, &mut self.st.meas, self.st.now);
        let QueuedMsg { dst, len, .. } = msg;
        let queued = src.queues.push_back(node, msg, tag);
        if let Some(tr) = &mut meas.trace {
            tr.events.push(TraceEvent::Queued { tag, time: now, src: node, dst, len });
        }
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
                // Pop every matured node. A due entry's key always equals
                // `now` (keys are ⌈next_arrival⌉ computed when the arrival
                // was strictly in the future, and nothing is left behind a
                // cycle), so matured nodes come out in ascending node
                // order — the reference engine's scan order.
                while let Some(&Reverse((fire, node))) = self.st.src.arrivals.peek() {
                    if fire > now {
                        break;
                    }
                    self.st.src.arrivals.pop();
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
                    self.st.src.arrivals.push(Reverse((next.ceil() as u64, node)));
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
