//! The run's mutable half: [`EngineState`], which holds one sub-state per
//! owner — the sources ([`super::arrivals`]), the request scratch
//! ([`super::allocate`]) and the measurement ([`super::run`]) beside the
//! lanes and packet slots defined here, which allocation claims,
//! transmission moves and a fault epoch aborts — and the debug audit that
//! holds the lane and packet masks to the predicates they mirror.

use super::allocate::Scratch;
use super::arrivals::{ArrivalKeys, Sources};
use super::run::Measure;
use super::{CompiledNet, Engine, Planes, Traffic};
use crate::active::{refill, trim, DenseBitSet, LaneBufs};
use crate::error::SimError;
use crate::fault::CompiledFaults;
use minnet_topology::PortSpan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// "No lane", "no packet" and "no node" in every `u32` word of the state.
pub(super) const NONE: u32 = u32::MAX;

/// The cold per-packet fields — touched at injection and completion, not
/// by the per-cycle allocate/transmit sweeps. The hot fields (`path`,
/// `window`, `sent`, `len`, `delivered`) are parallel dense arrays
/// of [`Packets`], indexed by packet slot, so the sweeps touch contiguous
/// memory (see the `engine` module header's struct-of-arrays notes).
#[derive(Clone, Copy, Debug)]
pub(super) struct PktMeta {
    pub(super) src: u32,
    pub(super) dst: u32,
    pub(super) gen_time: u64,
    /// Whether this message counts toward latency statistics.
    pub(super) measured: bool,
    /// Script/chain index (NONE for Poisson traffic).
    pub(super) tag: u32,
}

/// The mutable half of a simulation run: lanes, packets, sources,
/// measurement, scratch buffers, the clock and the RNG. Reusing one
/// `EngineState` across runs (its `reset` restores the exact fresh state
/// while keeping every allocation) removes the ~20 vector allocations a
/// fresh engine pays per run — the dominant fixed cost of short sweep
/// probes.
///
/// States are interchangeable between networks and configurations; the
/// reset path re-dimensions every container. Determinism does not depend
/// on *which* state a run uses — the differential tests drive the same
/// run through fresh and heavily-reused states and require bit-identical
/// reports.
#[derive(Debug)]
pub struct EngineState {
    pub(super) lanes: Lanes,
    pub(super) pkts: Packets,
    pub(super) src: Sources,
    pub(super) meas: Measure,
    pub(super) scratch: Scratch,
    pub(super) rng: SmallRng,
    pub(super) now: u64,
    pub(super) end: u64,
}

impl EngineState {
    /// An empty state; the first run dimensions it.
    pub fn new() -> EngineState {
        let (lanes, pkts, src, meas, scratch) = Default::default();
        EngineState { lanes, pkts, src, meas, scratch, rng: SmallRng::seed_from_u64(0), now: 0, end: 0 }
    }

    /// Approximate footprint in bytes — capacities × element size, queue
    /// chunks included, the convention of `NetworkGraph::approx_bytes`. (The
    /// fixed-size statistics accumulators, ≈ 9 KB, are not counted.)
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.lanes.approx_bytes()
            + self.pkts.approx_bytes()
            + self.src.approx_bytes()
            + self.meas.approx_bytes()
            + self.scratch.approx_bytes()
    }

    /// Restore the exact state a fresh engine construction produces for a
    /// run of `traffic` on `net` under `faults` (already normalized: a
    /// trivial schedule is `None`) with `seed`, its arrival heap packed by
    /// `keys`, keeping allocations wherever dimensions allow, and prime
    /// the traffic's event heaps.
    /// Every container goes through `crate::active`'s shrink rule:
    /// per-lane and per-node arrays at their new size, the ones a run
    /// grows — packet slots, heaps, scratch — against the node count they
    /// scale with.
    pub(super) fn reset(
        &mut self,
        net: &CompiledNet,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        keys: ArrivalKeys,
        seed: u64,
    ) {
        let (cfg, nodes) = (&net.cfg, net.net.geometry.nodes() as usize);
        self.rng = SmallRng::seed_from_u64(seed);
        (self.now, self.end) = (0, cfg.warmup + cfg.measure);
        let dead = faults.map(|f| &f.epochs[0].dead_planes[..]);
        self.lanes.reset(Planes::new(&net.net, cfg), cfg.buffer_depth, dead);
        self.pkts.reset(nodes, net.hops);
        self.src.reset(traffic, nodes, keys, &mut self.rng);
        let deterministic = !matches!(traffic, Traffic::Poisson(_));
        self.meas.reset(cfg, net.net.num_channels(), deterministic);
        self.scratch.reset(nodes);
    }
}

impl Default for EngineState {
    fn default() -> Self {
        EngineState::new()
    }
}

/// Lane state: parallel dense arrays indexed by plane (byte table in the
/// `engine` module header; [`Planes`] is the index space), and the plane
/// masks the transmit sweep combines — ascending bit order *is* the
/// sweep order.
#[derive(Debug, Default)]
pub(super) struct Lanes {
    /// Owning packet slot, [`NONE`] when free.
    pub(super) owner: Vec<u32>,
    /// The lane's index along its owner's route: the lane is
    /// `pkts.path` at `owner · H + hop`, and its upstream and downstream
    /// lanes are that entry's neighbours ([`Packets`]). Stale on a free
    /// lane, which nothing reads it through.
    pub(super) hop: Vec<u8>,
    /// Every lane's buffer, and its `full` mask. Ejection lanes are never
    /// pushed (the destination absorbs flits immediately), so their full
    /// bits stay 0 forever — which is why the ready combine needs no
    /// separate ejection mask: `eject ∨ ¬full` ≡ `¬full`.
    pub(super) bufs: LaneBufs,
    /// Per channel position, the VC that transmitted last (flit-level
    /// round-robin, [`round_robin_select`](super::transmit::round_robin_select)).
    /// Dimensioned only when `vcs > 1`.
    pub(super) mux_last: Vec<u8>,
    /// Bit `plane` ⟺ the lane is owned by a worm.
    pub(super) owned: DenseBitSet,
    /// Bit `plane` ⟺ the lane's upstream input is available (a source
    /// with flits left to emit, or a nonempty upstream lane buffer).
    pub(super) has_input: DenseBitSet,
    /// Bit `plane` ⟺ the lane is dead in the current fault epoch
    /// (loaded at epoch boundaries from `CompiledEpoch::dead_planes`).
    pub(super) dead: DenseBitSet,
}

impl Lanes {
    /// Every lane free, empty and (but for `dead`, epoch 0's dead-plane
    /// words) alive, over the planes of `planes`.
    fn reset(&mut self, planes: Planes<'_>, depth: u16, dead: Option<&[u64]>) {
        let n = planes.count();
        refill(&mut self.owner, n, NONE);
        refill(&mut self.hop, n, 0);
        self.bufs.reset(n, depth);
        refill(&mut self.mux_last, if planes.vcs > 1 { n >> planes.shift } else { 0 }, 0);
        for m in [&mut self.owned, &mut self.has_input, &mut self.dead] {
            m.reset(n);
        }
        if let Some(words) = dead {
            self.dead.load(words);
        }
    }

    /// Free the lane at plane `li`: no owner, no mask bit. The buffer is
    /// empty (asserted), so its full bit is already clear; `hop` is left
    /// stale.
    pub(super) fn release(&mut self, li: u32) {
        debug_assert!(self.bufs.is_empty(li as usize), "releasing a lane with a buffered flit");
        debug_assert_ne!(self.owner[li as usize], NONE, "double lane release");
        self.owner[li as usize] = NONE;
        self.owned.clear(li);
        self.has_input.clear(li);
    }

    fn approx_bytes(&self) -> usize {
        let masks = [&self.owned, &self.has_input, &self.dead];
        4 * self.owner.capacity()
            + self.hop.capacity()
            + self.bufs.approx_bytes()
            + self.mux_last.capacity()
            + masks.iter().map(|m| m.approx_bytes()).sum::<usize>()
    }
}

/// A worm's held lanes on its path, `path[tail..=head]`: `head` indexes
/// its head lane, `tail` the oldest lane it holds — a tail release
/// advances it.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Window {
    pub(super) tail: u8,
    pub(super) head: u8,
}

/// Packet state, struct-of-arrays by slot: the hot fields the sweeps
/// touch every cycle, a cold [`PktMeta`] array for the rest, and the slot
/// bookkeeping. A slot is stable for its packet's lifetime and recycled
/// through `free`.
///
/// A worm's lanes are its `path`: the planes it claimed, in route order,
/// `H` entries a slot (`stride`, the network's longest route in channels,
/// [`CompiledNet`]'s `hops`). It holds `path[tail..=head]`; every held
/// lane's `lanes.hop` is its index here, so a lane's upstream is the
/// entry before it — or, at `hop == tail`, the source while it has flits
/// left (`sent < len`: once `tail > 0` the source is done) — and its
/// downstream the entry after it, below the head.
#[derive(Debug, Default)]
pub(super) struct Packets {
    /// `H`, the stride of `path`.
    pub(super) stride: usize,
    /// Per slot, `H` planes: the worm's lanes in route order.
    pub(super) path: Vec<u32>,
    /// The slot's held window on its `path`, in one word so a move
    /// reads both ends with one bounds check.
    pub(super) window: Vec<Window>,
    pub(super) sent: Vec<u32>,
    pub(super) len: Vec<u32>,
    /// Destination node, duplicated out of `PktMeta` so the allocate
    /// phase's per-request routing lookup stays off the cold array.
    pub(super) dst: Vec<u32>,
    /// Cache of the head's routing decision — its candidates' transmit
    /// positions, a progression like the ids they map — refreshed
    /// whenever the head advances. A blocked worm re-requests every
    /// cycle; the cached span skips the `(at, dst)` lookup's chain of
    /// dependent loads and the level arithmetic. Fault-free path only.
    pub(super) cand: Vec<PortSpan>,
    pub(super) delivered: Vec<u32>,
    /// Index of the slot in `active` while the packet is in flight, so
    /// retirement is O(1).
    pub(super) active_pos: Vec<u32>,
    pub(super) meta: Vec<PktMeta>,
    pub(super) free: Vec<u32>,
    /// The in-flight slots; their order feeds the request shuffle.
    pub(super) active: Vec<u32>,
    /// Bit `p` (a packet slot) ⟺ packet `p`'s head lane is off the
    /// ejection channel **and** buffers `p`'s header — exactly the
    /// reference allocate phase's advance-request predicate.
    pub(super) advance: DenseBitSet,
}

impl Packets {
    fn reset(&mut self, nodes: usize, stride: usize) {
        self.stride = stride;
        for v in [
            &mut self.sent, &mut self.len, &mut self.dst, &mut self.delivered, &mut self.active_pos,
            &mut self.free, &mut self.active,
        ] {
            trim(v, nodes);
        }
        trim(&mut self.path, nodes * stride);
        trim(&mut self.window, nodes);
        trim(&mut self.cand, nodes);
        trim(&mut self.meta, nodes);
        // Grows with the slot table; starting at the node count (not 0)
        // keeps the shrink rule from freeing it on every same-sized rerun.
        self.advance.reset(nodes);
    }

    fn approx_bytes(&self) -> usize {
        let u32s = [
            &self.path, &self.sent, &self.len, &self.dst, &self.delivered, &self.active_pos,
            &self.free, &self.active,
        ];
        u32s.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + self.window.capacity() * std::mem::size_of::<Window>()
            + self.cand.capacity() * std::mem::size_of::<PortSpan>()
            + self.meta.capacity() * std::mem::size_of::<PktMeta>()
            + self.advance.approx_bytes()
    }

    /// The lanes packet `p` holds, tail to head.
    #[inline]
    pub(super) fn held(&self, p: u32) -> &[u32] {
        self.held_at(p, 0).0
    }

    /// [`Self::held`], and where in it the lane at `hop` sits: `hop −
    /// tail`, wrapped (so past the slice's end) below the tail.
    #[inline]
    pub(super) fn held_at(&self, p: u32, hop: u8) -> (&[u32], usize) {
        let base = p as usize * self.stride;
        let Window { tail, head } = self.window[p as usize];
        let (tail, head) = (usize::from(tail), usize::from(head));
        (&self.path[base + tail..base + head + 1], usize::from(hop).wrapping_sub(tail))
    }

    /// The plane of packet `p`'s head lane.
    #[inline]
    pub(super) fn head_lane(&self, p: u32) -> u32 {
        self.path[p as usize * self.stride + usize::from(self.window[p as usize].head)]
    }

    /// Append `lane` to packet `p`'s path as its new head; returns the
    /// lane's hop. A route longer than the stride is refused, typed,
    /// rather than written into the next slot's path.
    pub(super) fn extend(&mut self, p: u32, lane: u32) -> Result<u8, SimError> {
        let hop = usize::from(self.window[p as usize].head) + 1;
        if hop >= self.stride {
            return Err(SimError::Internal { what: "a worm outgrew the network's longest route" });
        }
        self.path[p as usize * self.stride + hop] = lane;
        self.window[p as usize].head = hop as u8;
        Ok(hop as u8)
    }

    /// Take a slot for a new packet whose head claimed `lane` — a recycled
    /// one, else a new one at the end of every array — and make it active.
    /// No advance request until the header lands in the head lane.
    pub(super) fn alloc(&mut self, lane: u32, len: u32, meta: PktMeta) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.meta.len();
            for v in [
                &mut self.sent, &mut self.len, &mut self.dst, &mut self.delivered,
                &mut self.active_pos,
            ] {
                v.push(0);
            }
            self.path.resize(self.path.len() + self.stride, NONE);
            self.window.push(Window::default());
            self.cand.push(PortSpan::default());
            self.meta.push(meta);
            self.advance.grow(s + 1);
            s as u32
        });
        let si = slot as usize;
        self.path[si * self.stride] = lane;
        self.window[si] = Window::default();
        self.sent[si] = 0;
        self.len[si] = len;
        self.dst[si] = meta.dst;
        self.delivered[si] = 0;
        self.active_pos[si] = self.active.len() as u32;
        self.meta[si] = meta;
        self.advance.clear(slot);
        self.active.push(slot);
        slot
    }
}

impl Engine<'_> {
    #[inline]
    pub(super) fn measuring(&self) -> bool {
        self.st.now >= self.cfg.warmup
    }

    /// Debug-only exactness audit: every mask bit must equal the
    /// per-lane predicate it mirrors. Called periodically from the cycle
    /// loop in debug builds; incremental-maintenance bugs persist in the
    /// masks, so a sampled check still catches them.
    /// It also holds what the derived chain rests on (`move_flit`): every
    /// owned plane sits at its owner's `path[hop]`, inside the held window
    /// `[tail, head]`, and every window entry is a plane its packet owns at
    /// that hop — so a plane outside all windows is free, and a free (or
    /// pad) plane buffers nothing; sweep positions descend along a window
    /// toward the head (the reverse-topological order).
    #[cfg(debug_assertions)]
    pub(super) fn check_kernel_masks(&self) {
        let (lanes, pkts) = (&self.st.lanes, &self.st.pkts);
        lanes.bufs.check_full_mask();
        for pl in 0..self.planes.count() as u32 {
            let li = pl as usize;
            let p = lanes.owner[li];
            assert_eq!(lanes.owned.contains(pl), p != NONE, "owned plane {pl}");
            assert_eq!(lanes.has_input.contains(pl), self.has_input(li), "has_input plane {pl}");
            if p == NONE {
                assert!(lanes.bufs.is_empty(li), "free plane {pl} holds a flit");
                continue;
            }
            let (pi, hop) = (p as usize, lanes.hop[li]);
            let active = pkts.active.get(pkts.active_pos[pi] as usize);
            assert_eq!(active, Some(&p), "plane {pl}'s owner {p} is not in flight");
            let Window { tail, head } = pkts.window[pi];
            assert!((tail..=head).contains(&hop), "plane {pl} off packet {p}'s window");
            let at = pkts.path[pi * pkts.stride + usize::from(hop)];
            assert_eq!(at, pl, "plane {pl} off packet {p}'s path");
        }
        let epoch = self.faults.map(|f| &f.epochs[self.epoch]);
        for w in 0..lanes.dead.num_words() {
            assert_eq!(lanes.dead.word(w), epoch.map_or(0, |ep| ep.dead_planes[w]), "dead word {w}");
        }
        let shift = self.planes.shift;
        for (i, &p) in pkts.active.iter().enumerate() {
            assert_eq!(pkts.active_pos[p as usize], i as u32, "active_pos packet {p}");
            let (tail, held) = (usize::from(pkts.window[p as usize].tail), pkts.held(p));
            for (hop, &li) in (tail..).zip(held) {
                assert_eq!(lanes.owner[li as usize], p, "path of packet {p} at hop {hop}");
                assert_eq!(usize::from(lanes.hop[li as usize]), hop, "path of packet {p} at plane {li}");
            }
            for w in held.windows(2) {
                let (up, down) = (w[0], w[1]);
                assert!(up >> shift > down >> shift, "path of packet {p} ascends at plane {down}");
            }
            let head = pkts.head_lane(p);
            let want = !self.eject.contains(head) && !lanes.bufs.is_empty(head as usize);
            assert_eq!(pkts.advance.contains(p), want, "advance packet {p}");
            if self.faults.is_none() {
                let at_ch = self.planes.channel(head);
                let route = self.routes.route(at_ch, pkts.dst[p as usize]);
                let want: Vec<u32> = route.map(|c| self.net.position(c)).collect();
                assert_eq!(pkts.cand[p as usize].collect::<Vec<_>>(), want, "cand packet {p}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::allocate::Req;
    use super::*;
    use crate::active::QueuedMsg;
    use crate::config::EngineConfig;
    use minnet_topology::Geometry;
    use std::mem::size_of;
    use std::sync::Arc;

    #[test]
    fn footprint_lane_and_node_arrays_are_on_budget() {
        assert_eq!(size_of::<QueuedMsg>(), 16);
        assert_eq!(size_of::<PktMeta>(), 24);
        assert_eq!(size_of::<PortSpan>(), 12);
        assert_eq!(size_of::<Req>(), 8);
        let g = Geometry::new(4, 3);
        let graph = Arc::new(minnet_topology::build_bmin(g));
        let (nch, nodes) = (graph.num_channels(), g.nodes() as usize);
        let spec = minnet_traffic::WorkloadSpec {
            offered_load: 0.1,
            pattern: minnet_traffic::TrafficPattern::Uniform,
            clustering: minnet_traffic::Clustering::Global,
            rates: None,
            sizes: minnet_traffic::MessageSizeDist::PAPER,
        };
        let workload = minnet_traffic::Workload::compile(g, &spec).unwrap();
        let mut st = EngineState::new();
        let mut reset = |cfg: EngineConfig| {
            let net = CompiledNet::new(graph.clone(), cfg).unwrap();
            st.reset(&net, Traffic::Poisson(&workload), None, net.keys.unwrap(), 1);
            let lanes = &st.lanes;
            // The buffers' `full` mask is one of the planes' four masks,
            // as wide as `owned`.
            let counters = lanes.bufs.approx_bytes() - lanes.owned.approx_bytes();
            let lane_bytes = 4 * lanes.owner.len() + lanes.hop.len() + counters + lanes.mux_last.len();
            // Every node generates, so the arrival heap holds a key each.
            assert_eq!(st.src.arrivals.len(), nodes);
            let node_bytes = 4 * st.src.injecting.len()
                + 8 * st.src.next_arrival.len()
                + 8 * st.src.arrivals.capacity();
            (lane_bytes, node_bytes + st.src.queues.approx_bytes())
        };
        let (lane_bytes, node_bytes) = reset(EngineConfig::default());
        assert_eq!(lane_bytes, 5 * nch, "vcs 1, depth 1: 5 B a lane, no counter, no mux");
        assert_eq!(size_of::<std::cmp::Reverse<u64>>(), 8);
        assert_eq!(node_bytes, 28 * nodes, "injector 4, next arrival 8, heap key 8, queue 8");
        let (lane_bytes, _) = reset(EngineConfig { vcs: 2, buffer_depth: 4, ..EngineConfig::default() });
        assert_eq!(lane_bytes, 7 * 2 * nch + nch, "vcs 2, depth 4: 7 B a lane + 1 B a channel");
        // Not a power of two: the lane arrays are padded to the plane group.
        let (lane_bytes, _) = reset(EngineConfig { vcs: 3, ..EngineConfig::default() });
        assert_eq!(lane_bytes, 5 * 4 * nch + nch, "vcs 3: a group of 4 planes a channel");
    }

    /// A claim past the stride is refused, typed, and leaves the next
    /// slot's path as it was.
    #[test]
    fn a_claim_past_the_longest_route_is_refused() {
        let mut pkts = Packets::default();
        pkts.reset(2, 3);
        let meta = PktMeta { src: 0, dst: 1, gen_time: 0, measured: true, tag: NONE };
        let (p, q) = (pkts.alloc(10, 4, meta), pkts.alloc(20, 4, meta));
        assert_eq!((pkts.extend(p, 11).unwrap(), pkts.extend(p, 12).unwrap()), (1, 2));
        assert!(matches!(pkts.extend(p, 13), Err(SimError::Internal { .. })));
        assert_eq!((pkts.held(p), pkts.head_lane(p)), (&[10, 11, 12][..], 12));
        assert_eq!((pkts.held(q), pkts.head_lane(q)), (&[20][..], 20));
        assert_eq!(pkts.path, [10, 11, 12, 20, NONE, NONE]);
    }
}
