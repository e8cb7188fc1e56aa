//! Fault epochs: catching the epoch up to the clock, aborting the worms
//! it strands, and the no-progress watchdog's stall diagnostic.

use super::state::NONE;
use super::Engine;
use crate::error::{SimError, StallDiagnostic, StalledPacket};
use crate::trace::{Observer, TraceEvent};
use minnet_routing::find_cycle;

impl<O: Observer> Engine<'_, O> {
    /// Advance the fault epoch to match `now` (several boundaries may
    /// pass at once after a fast-forward jump). On a change, with
    /// `fault_abort` on, sweep the active packets and abort every
    /// casualty: worms holding a now-dead lane, and worms whose head has
    /// no live continuation under the new masked table.
    pub(super) fn advance_epoch(&mut self) -> Result<(), SimError> {
        let Some(f) = self.faults else { return Ok(()) };
        let mut changed = false;
        while self.epoch + 1 < f.epochs.len() && f.epochs[self.epoch + 1].start <= self.st.now {
            self.epoch += 1;
            changed = true;
        }
        if !changed {
            return Ok(());
        }
        // A boundary can resurrect lanes (dead in the old epoch, live in
        // the new one). Readiness is recomputed from the masks on every
        // word read, so loading the new dead mask is all it takes.
        self.st.lanes.dead.load(&f.epochs[self.epoch].dead_planes);
        if !self.cfg.fault_abort {
            return Ok(());
        }
        let ep = &f.epochs[self.epoch];
        // Identify casualties first (ascending slot order for
        // determinism), then abort — aborting mutates `active`.
        let mut victims: Vec<u32> = Vec::new();
        for &p in &self.st.pkts.active {
            let pi = p as usize;
            let head = self.st.pkts.head_lane(p);
            let chain_dead = self.chain_holds_dead_lane(p);
            let disconnected = !self.eject.contains(head)
                && ep.routes.route(self.planes.channel(head), self.st.pkts.meta[pi].dst).len() == 0;
            if chain_dead || disconnected {
                victims.push(p);
            }
        }
        victims.sort_unstable();
        for p in victims {
            self.abort_packet(p)?;
        }
        // Epoch changes (and any aborts they caused) are progress as far
        // as the watchdog is concerned: the network's constraints just
        // changed, so give the new epoch a full window.
        self.st.meas.last_progress = self.st.now;
        Ok(())
    }

    /// Whether any lane `p` holds is dead.
    fn chain_holds_dead_lane(&self, p: u32) -> bool {
        self.st.pkts.held(p).iter().any(|&li| self.st.lanes.dead.contains(li))
    }

    /// Abort-and-drain: walk `p`'s held lanes, tail to head, drain every
    /// buffered flit, release every lane, restore the source injector if
    /// the worm was still drawing from it, and retire the slot. Debug
    /// builds check conservation of flits: every flit the source emitted
    /// was either delivered or drained here.
    pub(super) fn abort_packet(&mut self, p: u32) -> Result<(), SimError> {
        let pi = p as usize;
        let (lanes, pkts) = (&mut self.st.lanes, &self.st.pkts);
        let mut drained: u32 = 0;
        for &li in pkts.held(p) {
            if lanes.owner[li as usize] != p {
                let what = "aborting a worm over a lane it does not own";
                return Err(SimError::Internal { what });
            }
            drained += lanes.bufs.drain(li as usize);
            lanes.release(li);
        }
        if pkts.sent[pi] < pkts.len[pi] {
            let node = pkts.meta[pi].src;
            self.st.src.injecting[node as usize] = NONE;
            if self.st.src.queues.front(node).is_some() {
                self.st.src.injectable.set(node);
            }
        }
        let pkts = &self.st.pkts;
        let leaked = "flits leaked during abort-and-drain";
        debug_assert_eq!(pkts.sent[pi], pkts.delivered[pi] + drained, "{leaked}");
        let meta = pkts.meta[pi];
        if meta.measured {
            self.st.meas.aborted_pkts += 1;
        }
        self.obs.on_event(TraceEvent::Aborted { tag: meta.tag, time: self.st.now });
        self.retire(p, "aborting an inactive packet")
    }

    /// Build the structured diagnostic the watchdog terminates with:
    /// every active packet and its position, the held channels, and — via
    /// a cycle search on the packet wait-for graph (packet → owners of
    /// the lanes it wants next) — the circular wait, if one exists.
    pub(super) fn diagnose_stall(&mut self) -> StallDiagnostic {
        let pkts = &self.st.pkts;
        let stalled: Vec<StalledPacket> = (pkts.active.iter().map(|&p| p as usize))
            .map(|pi| StalledPacket {
                src: pkts.meta[pi].src,
                dst: pkts.meta[pi].dst,
                head_channel: self.planes.channel(pkts.head_lane(pi as u32)),
                sent: pkts.sent[pi],
                len: pkts.len[pi],
                delivered: pkts.delivered[pi],
            })
            .collect();
        let mut held_channels = Vec::new();
        self.st.lanes.owned.for_each(|pl| held_channels.push(self.planes.channel(pl)));
        held_channels.sort_unstable();
        held_channels.dedup();
        // Wait-for graph over indices into `stalled`. An edge i → j means
        // packet i's header wants a lane of a candidate channel currently
        // owned by packet j. `find_cycle` works on any dense u32 digraph.
        let mut slot_to_idx = vec![u32::MAX; pkts.meta.len()];
        for (i, &p) in pkts.active.iter().enumerate() {
            slot_to_idx[p as usize] = i as u32;
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); pkts.active.len()];
        for (i, &p) in pkts.active.iter().enumerate() {
            let pi = p as usize;
            let head = pkts.head_lane(p);
            if self.eject.contains(head) {
                continue;
            }
            let dst = pkts.meta[pi].dst;
            let routes = self.faults.map_or(self.routes, |f| &f.epochs[self.epoch].routes);
            for c in routes.route(self.planes.channel(head), dst) {
                for vc in 0..self.planes.vcs {
                    let owner = self.st.lanes.owner[self.planes.of(c, vc.into()) as usize];
                    if owner != NONE && owner != p {
                        let j = slot_to_idx[owner as usize];
                        if j != u32::MAX && !adj[i].contains(&j) {
                            adj[i].push(j);
                        }
                    }
                }
            }
        }
        StallDiagnostic {
            cycle: self.st.now,
            window: self.cfg.watchdog_window,
            stalled,
            held_channels,
            suspected_cycle: find_cycle(&adj),
        }
    }
}
