//! The run's mutable half: [`EngineState`], which holds one sub-state per
//! owner — the sources ([`super::arrivals`]), the request scratch
//! ([`super::allocate`]) and the measurement ([`super::run`]) beside the
//! lanes and packet slots defined here, which allocation claims,
//! transmission moves and a fault epoch aborts — and the debug audit that
//! holds the lane and packet masks to the predicates they mirror.

use super::allocate::Scratch;
use super::arrivals::Sources;
use super::run::Measure;
use super::{CompiledNet, Engine, Planes, Traffic};
use crate::active::{refill, trim, DenseBitSet, LaneBufs};
use crate::fault::CompiledFaults;
use minnet_topology::PortSpan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// "No lane", "no packet" and "no node" in every `u32` word of the state.
pub(super) const NONE: u32 = u32::MAX;
/// Where a lane's next flit comes from, as one `lanes.upstream` word: bit
/// 31 clear = the buffer of the lane at that plane; [`NONE`] = exhausted
/// (the tail is already buffered here, or the lane is free); else
/// `UP_SOURCE | node` = that node's source queue. Readers test in that
/// order — two plain branches; decoding into an enum first cost the
/// `vcs == 1` kernel 3–5 %.
pub(super) const UP_SOURCE: u32 = 1 << 31;

/// The cold per-packet fields — touched at injection and completion, not
/// by the per-cycle allocate/transmit sweeps. The hot fields (`head_lane`,
/// `sent`, `len`, `delivered`) are parallel dense arrays of [`Packets`],
/// indexed by packet slot, so the sweeps touch contiguous memory (see the
/// `engine` module header's struct-of-arrays notes).
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

    /// Approximate footprint in bytes — capacities × element size, message
    /// slab included, the convention of `NetworkGraph::approx_bytes`. (The
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
    /// trivial schedule is `None`) with `seed`, keeping allocations
    /// wherever dimensions allow, and prime the traffic's event heaps.
    /// Every container goes through `crate::active`'s shrink rule:
    /// per-lane and per-node arrays at their new size, the ones a run
    /// grows — packet slots, heaps, scratch — against the node count they
    /// scale with.
    pub(super) fn reset(
        &mut self,
        net: &CompiledNet,
        traffic: Traffic<'_>,
        faults: Option<&CompiledFaults>,
        seed: u64,
    ) {
        let (cfg, nodes) = (&net.cfg, net.net.geometry.nodes() as usize);
        self.rng = SmallRng::seed_from_u64(seed);
        (self.now, self.end) = (0, cfg.warmup + cfg.measure);
        let dead = faults.map(|f| &f.epochs[0].dead_planes[..]);
        self.lanes.reset(Planes::new(&net.net, cfg), cfg.buffer_depth, dead);
        self.pkts.reset(nodes);
        self.src.reset(traffic, nodes, &mut self.rng);
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
    /// Packed upstream words (see [`UP_SOURCE`]).
    pub(super) upstream: Vec<u32>,
    /// Inverse of `upstream` along a worm's chain: the plane of the lane
    /// that consumes this lane's buffer; [`NONE`] at the head, and on
    /// every free lane.
    pub(super) downstream: Vec<u32>,
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
    /// Bit `plane` ⟺ the lane's own buffer is full. Ejection lanes are
    /// never pushed (the destination absorbs flits immediately), so
    /// their bits stay 0 forever — which is why the ready combine needs
    /// no separate ejection mask: `eject ∨ ¬full` ≡ `¬full`.
    pub(super) full: DenseBitSet,
    /// Bit `plane` ⟺ the lane is dead in the current fault epoch
    /// (loaded at epoch boundaries from `CompiledEpoch::dead_planes`).
    pub(super) dead: DenseBitSet,
}

impl Lanes {
    /// Every lane free, empty and (but for `dead`, epoch 0's dead-plane
    /// words) alive, over the planes of `planes`.
    fn reset(&mut self, planes: Planes<'_>, depth: u16, dead: Option<&[u64]>) {
        let n = planes.count();
        for v in [&mut self.owner, &mut self.upstream, &mut self.downstream] {
            refill(v, n, NONE);
        }
        self.bufs.reset(n, depth);
        refill(&mut self.mux_last, if planes.vcs > 1 { n >> planes.shift } else { 0 }, 0);
        for m in [&mut self.owned, &mut self.has_input, &mut self.full, &mut self.dead] {
            m.reset(n);
        }
        if let Some(words) = dead {
            self.dead.load(words);
        }
    }

    fn approx_bytes(&self) -> usize {
        let masks = [&self.owned, &self.has_input, &self.full, &self.dead];
        4 * (self.owner.capacity() + self.upstream.capacity() + self.downstream.capacity())
            + self.bufs.approx_bytes()
            + self.mux_last.capacity()
            + masks.iter().map(|m| m.approx_bytes()).sum::<usize>()
    }
}

/// Packet state, struct-of-arrays by slot: the hot fields the sweeps
/// touch every cycle, a cold [`PktMeta`] array for the rest, and the slot
/// bookkeeping. A slot is stable for its packet's lifetime and recycled
/// through `free`.
#[derive(Debug, Default)]
pub(super) struct Packets {
    pub(super) head_lane: Vec<u32>,
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
    fn reset(&mut self, nodes: usize) {
        for v in [
            &mut self.head_lane, &mut self.sent, &mut self.len, &mut self.dst, &mut self.delivered,
            &mut self.active_pos, &mut self.free, &mut self.active,
        ] {
            trim(v, nodes);
        }
        trim(&mut self.cand, nodes);
        trim(&mut self.meta, nodes);
        // Grows with the slot table; starting at the node count (not 0)
        // keeps the shrink rule from freeing it on every same-sized rerun.
        self.advance.reset(nodes);
    }

    fn approx_bytes(&self) -> usize {
        let u32s = [
            &self.head_lane, &self.sent, &self.len, &self.dst, &self.delivered, &self.active_pos,
            &self.free, &self.active,
        ];
        u32s.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + self.cand.capacity() * std::mem::size_of::<PortSpan>()
            + self.meta.capacity() * std::mem::size_of::<PktMeta>()
            + self.advance.approx_bytes()
    }

    /// Take a slot for a new packet whose head claimed `lane` — a recycled
    /// one, else a new one at the end of every array — and make it active.
    /// No advance request until the header lands in the head lane.
    pub(super) fn alloc(&mut self, lane: u32, len: u32, meta: PktMeta) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = self.meta.len();
            for v in [
                &mut self.head_lane, &mut self.sent, &mut self.len, &mut self.dst,
                &mut self.delivered, &mut self.active_pos,
            ] {
                v.push(0);
            }
            self.cand.push(PortSpan::default());
            self.meta.push(meta);
            self.advance.grow(s + 1);
            s as u32
        });
        let si = slot as usize;
        self.head_lane[si] = lane;
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
    /// It also holds what the flit-less buffers rest on (`move_flit`):
    /// a free or pad plane buffers nothing and links nowhere; a worm is one
    /// chain, upstream and downstream words inverse, sweep positions
    /// descending toward the head (the reverse-topological order).
    #[cfg(debug_assertions)]
    pub(super) fn check_kernel_masks(&self) {
        let (lanes, pkts) = (&self.st.lanes, &self.st.pkts);
        for pl in 0..self.planes.count() as u32 {
            let li = pl as usize;
            let owned = lanes.owner[li] != NONE;
            assert_eq!(lanes.owned.contains(pl), owned, "owned plane {pl}");
            assert_eq!(lanes.full.contains(pl), lanes.bufs.is_full(li), "full plane {pl}");
            assert_eq!(lanes.has_input.contains(pl), self.has_input(li), "has_input plane {pl}");
            let unlinked = lanes.upstream[li] == NONE && lanes.downstream[li] == NONE;
            assert!(owned || (lanes.bufs.is_empty(li) && unlinked), "free plane {pl} holds state");
        }
        let epoch = self.faults.map(|f| &f.epochs[self.epoch]);
        for w in 0..lanes.dead.num_words() {
            assert_eq!(lanes.dead.word(w), epoch.map_or(0, |ep| ep.dead_planes[w]), "dead word {w}");
        }
        let shift = self.planes.shift;
        for (i, &p) in pkts.active.iter().enumerate() {
            assert_eq!(pkts.active_pos[p as usize], i as u32, "active_pos packet {p}");
            let head = pkts.head_lane[p as usize];
            assert_eq!(lanes.downstream[head as usize], NONE, "head of packet {p} feeds a lane");
            let mut li = head;
            loop {
                assert_eq!(lanes.owner[li as usize], p, "chain of packet {p} at plane {li}");
                let up = lanes.upstream[li as usize];
                if up & UP_SOURCE != 0 {
                    break;
                }
                assert_eq!(lanes.downstream[up as usize], li, "chain of packet {p} at plane {up}");
                assert!(up >> shift > li >> shift, "chain of packet {p} ascends at plane {li}");
                li = up;
            }
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
    use super::super::Script;
    use super::*;
    use crate::active::QueuedMsg;
    use crate::config::EngineConfig;
    use minnet_topology::Geometry;
    use std::mem::size_of;
    use std::sync::Arc;

    #[test]
    fn footprint_lane_and_node_arrays_are_on_budget() {
        assert_eq!(size_of::<QueuedMsg>(), 24);
        assert_eq!(size_of::<PktMeta>(), 24);
        assert_eq!(size_of::<PortSpan>(), 12);
        assert_eq!(size_of::<Req>(), 8);
        let g = Geometry::new(4, 3);
        let graph = Arc::new(minnet_topology::build_bmin(g));
        let (nch, nodes) = (graph.num_channels(), g.nodes() as usize);
        let script = Script::compile(g, &[]).unwrap();
        let mut st = EngineState::new();
        let mut reset = |cfg: EngineConfig| {
            let net = CompiledNet::new(graph.clone(), cfg).unwrap();
            st.reset(&net, Traffic::Script(&script), None, 1);
            let lanes = &st.lanes;
            let lane_bytes = 4 * (lanes.owner.len() + lanes.upstream.len() + lanes.downstream.len())
                + lanes.bufs.approx_bytes()
                + lanes.mux_last.len();
            let node_bytes = 4 * st.src.injecting.len() + 8 * st.src.next_arrival.len();
            (lane_bytes, node_bytes + st.src.queues.approx_bytes())
        };
        let (lane_bytes, node_bytes) = reset(EngineConfig::default());
        assert_eq!(lane_bytes, 14 * nch, "vcs 1, depth 1: 14 B a lane, no mux");
        assert_eq!(node_bytes, 24 * nodes);
        let (lane_bytes, _) = reset(EngineConfig { vcs: 2, buffer_depth: 4, ..EngineConfig::default() });
        assert_eq!(lane_bytes, 14 * 2 * nch + nch, "vcs 2, depth 4: 14 B a lane + 1 B a channel");
        // Not a power of two: the lane arrays are padded to the plane group.
        let (lane_bytes, _) = reset(EngineConfig { vcs: 3, ..EngineConfig::default() });
        assert_eq!(lane_bytes, 14 * 4 * nch + nch, "vcs 3: a group of 4 planes a channel");
    }
}
