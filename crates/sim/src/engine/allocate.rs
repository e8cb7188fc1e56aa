//! Phase 2, routing and lane allocation: every injectable source and
//! every worm whose header waits in its head lane requests a lane, in a
//! random order, and claims one of its free candidates at random. The
//! phase owns its request scratch, [`Scratch`].

use super::state::{PktMeta, NONE};
use super::{Engine, Planes};
use crate::active::trim;
use crate::error::SimError;
use crate::trace::TraceEvent;
use minnet_routing::Route;
use minnet_topology::{ChannelId, PortSpan};
use rand::RngExt;

#[derive(Clone, Copy, Debug)]
pub(super) enum Req {
    Inject(u32),
    Advance(u32),
}

/// The allocation phase's scratch buffers: one cycle's requests, and the
/// free candidate planes of one claim.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    elig: Vec<u32>,
    reqs: Vec<Req>,
}

impl Scratch {
    pub(super) fn reset(&mut self, nodes: usize) {
        trim(&mut self.elig, nodes);
        trim(&mut self.reqs, nodes);
    }

    pub(super) fn approx_bytes(&self) -> usize {
        4 * self.elig.capacity() + std::mem::size_of::<Req>() * self.reqs.capacity()
    }
}

impl Engine<'_> {
    pub(super) fn allocate(&mut self) -> Result<(), SimError> {
        let mut reqs = std::mem::take(&mut self.st.scratch.reqs);
        reqs.clear();
        self.st.src.injectable.for_each(|node| reqs.push(Req::Inject(node)));
        // The advance-request predicate is tracked incrementally in
        // `pkts.advance` (set when the header flit lands in the head
        // lane's buffer, cleared when a claim moves the head), so the scan
        // costs one bit test per active packet instead of a head-lane /
        // ejection / buffer-front load chain. The `active` vec still
        // drives the scan — request order (injectable ascending, then
        // `active` insertion order) feeds the request shuffle and must
        // stay identical to the reference engine's.
        for &p in &self.st.pkts.active {
            if self.st.pkts.advance.contains(p) {
                reqs.push(Req::Advance(p));
            }
        }
        // Serve requests in random order (distributed arbitration).
        let n = reqs.len();
        for i in (1..n).rev() {
            let j = self.st.rng.random_range(0..=i);
            reqs.swap(i, j);
        }
        let result = reqs.iter().try_for_each(|&req| match req {
            Req::Inject(node) => self.try_inject(node),
            Req::Advance(p) => self.try_advance(p),
        });
        self.st.scratch.reqs = reqs;
        result
    }

    /// Collect the planes of the free lanes of the candidate channels at
    /// transmit `positions` into the eligibility scratch: where a routing
    /// decision enters plane space — the cached progression on the
    /// fault-free path, a masked cell mapped channel by channel under a
    /// fault schedule, where dead lanes are not eligible.
    fn gather_free(&mut self, positions: impl Iterator<Item = u32>) {
        let (lanes, elig) = (&self.st.lanes, &mut self.st.scratch.elig);
        elig.clear();
        let (Planes { vcs, shift, .. }, faulted) = (self.planes, self.faults.is_some());
        for pos in positions {
            let group = pos << shift;
            for pl in group..group + u32::from(vcs) {
                if lanes.owner[pl as usize] == NONE && !(faulted && lanes.dead.contains(pl)) {
                    elig.push(pl);
                }
            }
        }
    }

    /// Claim one of the gathered free lanes for `owner`, uniformly at
    /// random (the paper's policy); returns its plane.
    fn claim_gathered(&mut self, owner: u32) -> Option<u32> {
        let elig = &self.st.scratch.elig;
        if elig.is_empty() {
            return None;
        }
        let lane = elig[self.st.rng.random_range(0..elig.len())];
        self.st.lanes.owner[lane as usize] = owner;
        self.st.lanes.owned.set(lane);
        Some(lane)
    }

    /// Pop undeliverable messages off `node`'s queue head: under the
    /// current fault epoch no live route from the injection channel
    /// reaches their destination, so injecting them could only wedge the
    /// network. Counted (when measured) in `undeliverable_pkts`; the
    /// queue is self-cleaning because the next allocation phase sees the
    /// next message. Returns whether a deliverable message remains.
    fn refuse_undeliverable(&mut self, node: u32, inj: ChannelId) -> bool {
        let Some(f) = self.faults else { return true };
        let ep = &f.epochs[self.epoch];
        if !ep.any_dead {
            return true;
        }
        let (src, meas) = (&mut self.st.src, &mut self.st.meas);
        loop {
            let Some(msg) = src.queues.front(node) else {
                src.injectable.clear(node);
                return false;
            };
            // The masked table's injection cell is nonempty iff a live
            // path to the destination exists (deliverability pruning).
            if ep.routes.route(inj, msg.dst).len() > 0 {
                return true;
            }
            let tag = src.queues.pop_front(node).map_or(NONE, |(_, tag)| tag);
            src.queued -= 1;
            if msg.gen_time >= self.cfg.warmup {
                meas.undeliverable_pkts += 1;
            }
            if let Some(tr) = &mut meas.trace {
                tr.events.push(TraceEvent::Refused { tag, time: self.st.now });
            }
        }
    }

    fn try_inject(&mut self, node: u32) -> Result<(), SimError> {
        let inj = self.net.inject(node);
        if !self.refuse_undeliverable(node, inj) {
            return Ok(());
        }
        self.gather_free(std::iter::once(self.net.position(inj)));
        // Claim with a placeholder owner; fixed up after slot allocation.
        let Some(lane) = self.claim_gathered(NONE - 1) else {
            return Ok(());
        };
        let src = &mut self.st.src;
        let Some((msg, tag)) = src.queues.pop_front(node) else {
            return Err(SimError::Internal { what: "inject request without a queued message" });
        };
        src.queued -= 1;
        src.injectable.clear(node);
        let (dst, gen_time) = (msg.dst, msg.gen_time);
        let measured = gen_time >= self.cfg.warmup;
        let meta = PktMeta { src: node, dst, gen_time, measured, tag };
        let slot = self.st.pkts.alloc(lane, msg.len, meta);
        self.st.lanes.owner[lane as usize] = slot;
        self.st.lanes.hop[lane as usize] = 0;
        // A source with a packet to emit is available input
        // (`sent == 0 < len`); the fresh head lane's buffer is empty,
        // so no advance request until the header lands in it.
        debug_assert!(msg.len >= 1);
        self.st.lanes.has_input.set(lane);
        if self.faults.is_none() {
            self.st.pkts.cand[slot as usize] = self.route(inj, dst);
        }
        self.st.src.injecting[node as usize] = slot;
        if let Some(tr) = &mut self.st.meas.trace {
            let time = self.st.now;
            tr.events.push(TraceEvent::Injected { tag, time });
            tr.events.push(TraceEvent::Hop { tag, time, channel: inj });
        }
        Ok(())
    }

    /// The routing decision of a header arriving over `at` for `dst`, as
    /// its candidates' transmit positions: the table's span moved by its
    /// level's map — empty at the ejection channel, where no advance
    /// request is raised.
    fn route(&self, at: ChannelId, dst: u32) -> PortSpan {
        match self.routes.route(at, dst) {
            Route::Span(ids) => ids.get(0).map_or(ids, |c| self.planes.level(c).of_span(ids)),
            Route::Cell(_) => unreachable!("a compiled network's table is the built, compact one"),
        }
    }

    fn try_advance(&mut self, p: u32) -> Result<(), SimError> {
        // The destination comes from the hot SoA copy; the cold `PktMeta`
        // record is only touched on the rare paths that need more
        // (tracing wants `tag`).
        let dst = self.st.pkts.dst[p as usize];
        match self.faults {
            // Fault epochs route through the masked table: candidates
            // are live *and* deliverable.
            Some(f) => {
                let at_ch = self.planes.channel(self.st.pkts.head_lane(p));
                let cands = f.epochs[self.epoch].routes.route(at_ch, dst);
                let Some(first) = cands.clone().next() else {
                    // Disconnected mid-route: the current epoch left this
                    // worm no live continuation toward its destination.
                    // `advance_epoch` aborts such worms at the boundary
                    // when `fault_abort` is on, so reaching this with the
                    // knob on means the worm arrived here within the
                    // epoch — abort it now; with the knob off it wedges
                    // in place for the watchdog to diagnose.
                    if self.cfg.fault_abort {
                        self.abort_packet(p)?;
                    }
                    return Ok(());
                };
                let at = self.planes.level(first);
                self.gather_free(cands.map(|c| at.of(c)));
            }
            None => {
                let positions = self.st.pkts.cand[p as usize];
                debug_assert!(positions.len > 0, "advance request at the destination");
                self.gather_free(positions);
            }
        }
        let Some(lane) = self.claim_gathered(p) else {
            return Ok(()); // blocked; the worm holds its lanes and waits
        };
        // The one id a hop needs: the new head's, to look its route up.
        let new_ch = self.planes.channel(lane);
        // The advance request came off a nonempty head-lane buffer (its
        // front is the header), so the new head has input; its own empty
        // buffer holds no header yet.
        debug_assert!(!self.st.lanes.bufs.is_empty(self.st.pkts.head_lane(p) as usize));
        self.st.lanes.hop[lane as usize] = self.st.pkts.extend(p, lane)?;
        self.st.lanes.has_input.set(lane);
        self.st.pkts.advance.clear(p);
        // New head, new candidate cell: refresh the cache once per hop.
        if self.faults.is_none() {
            self.st.pkts.cand[p as usize] = self.route(new_ch, dst);
        }
        if let Some(tr) = &mut self.st.meas.trace {
            let tag = self.st.pkts.meta[p as usize].tag;
            tr.events.push(TraceEvent::Hop { tag, time: self.st.now, channel: new_ch });
        }
        Ok(())
    }
}
