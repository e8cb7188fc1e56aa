//! Phase 3, transmission: every physical channel forwards at most one
//! flit, downstream-first, so an unblocked worm advances over its whole
//! span in one cycle (§5: switches "synchronize to simultaneously
//! transmit all of the flits in a worm"); a flit reaching its destination
//! node is consumed at once, and a delivered packet's slot is retired.

use super::state::NONE;
use super::{Engine, Traffic};
use crate::config::Delivery;
use crate::error::SimError;
use crate::trace::{Observer, TraceEvent};
use std::cmp::Reverse;

/// [`Engine::move_flit`] feedback: "no lane ahead of the cursor changed
/// readiness" (the move pulled from a source).
const NO_FEEDBACK: u32 = u32::MAX;
/// Feedback low bits: the popped upstream lane's plane. Bit 31 carries
/// its recomputed ready state; `check_index_range` keeps planes below
/// 2³¹.
const PLANE_MASK: u32 = 0x7FFF_FFFF;

/// Flit-level round-robin among a channel's ready virtual channels (§2.2:
/// `k` active VCs each get `W/k`): bit `i` of `ready` ⟺ VC `i` of `n ≤
/// 64` is ready (no bit at or above `n` set), and `last`, the VC that
/// transmitted last, is the multiplexer's whole memory. The first ready
/// VC after `last`, wrapping to the lowest; `None` when none is ready.
#[inline]
pub(crate) fn round_robin_select(last: &mut u8, ready: u64, n: u32) -> Option<u32> {
    if ready == 0 {
        return None;
    }
    let start = (u32::from(*last) + 1) % n;
    let from_start = ready >> start << start;
    let i = if from_start != 0 { from_start } else { ready }.trailing_zeros();
    *last = i as u8;
    Some(i)
}

impl<O: Observer> Engine<'_, O> {
    /// Word-parallel transmit: combine the lane masks into an **exact**
    /// per-word ready mask — `owned ∧ has_input ∧ ¬full ∧ ¬dead`, bit
    /// for bit the [`lane_ready`](Self::lane_ready) predicate (its
    /// `eject ∨ ¬full` term collapses to `¬full` because ejection-lane
    /// buffers are never pushed, and the `¬dead` term is folded only
    /// when a fault plan is loaded — without one `dead` is identically
    /// zero) — and serve its set bits with `trailing_zeros`. Planes are
    /// sweep-position-major, so ascending bit order *is* the reference
    /// engine's every-channel scan order with the channels that have no
    /// ready lane left out — and such a visit touches neither mux nor
    /// RNG nor report state, so every move and every mux selection is
    /// identical, in identical order. For `vcs > 1` a channel's lanes
    /// are one aligned group of `1 << vcs_shift` bits; the group's low
    /// `vcs` bits are the `ready` bool array the reference builds for the
    /// channel's VC mux, which is consulted only when some lane is ready,
    /// and the cursor advances a whole group at a time (one flit per
    /// channel per cycle).
    ///
    /// Kept out of line: inlined into the cycle loop of `run` the kernels
    /// share a frame with the allocation phase, and an unrelated edit
    /// there (a change to the route lookup) re-allocated their registers
    /// for a measured −6 % on 64-node sweeps. One call per cycle buys
    /// codegen that only changes when this code does.
    #[inline(never)]
    pub(super) fn transmit(&mut self) -> Result<(), SimError> {
        let nw = self.st.lanes.owned.num_words();
        let faulted = self.faults.is_some();
        if self.planes.vcs == 1 {
            self.transmit_kernel_vc1(nw, faulted)
        } else {
            self.transmit_kernel_vcn(nw, faulted)
        }
    }

    /// The saturation-critical kernel: `vcs == 1`. Each mask word is
    /// combined **once**; the set bits are then consumed low-to-high with
    /// no re-read, because under the reverse-topological order a move
    /// can change the readiness of at most one lane *ahead* of the
    /// cursor — the popped upstream lane `u` (its
    /// full-bit falls; every other mask transition lands at an earlier
    /// position: the pushed-into lane is the bit just consumed, and the
    /// downstream lane gaining input sits before it). [`Self::move_flit`]
    /// reports `u`'s plane and recomputed ready bit, and the loop patches
    /// the resident word directly — turning the per-move mask re-read
    /// into a register operation. Bits that *fall* ahead of the cursor
    /// cannot happen: a released upstream lane had no input (its worm's
    /// tail was the popped flit), so its bit was never set.
    fn transmit_kernel_vc1(&mut self, nw: usize, faulted: bool) -> Result<(), SimError> {
        for w in 0..nw {
            let lanes = &self.st.lanes;
            let mut ready = lanes.owned.word(w) & lanes.has_input.word(w) & !lanes.bufs.full_word(w);
            if faulted {
                ready &= !lanes.dead.word(w);
            }
            let eject = self.eject.word(w);
            while ready != 0 {
                let b = ready.trailing_zeros();
                ready &= ready - 1;
                let pl = (w * 64) as u32 + b;
                debug_assert!(self.lane_ready(pl));
                let fb = self.move_flit(pl, eject >> b & 1 != 0)?;
                if fb != NO_FEEDBACK && (fb & PLANE_MASK) >> 6 == w as u32 {
                    debug_assert!(fb & PLANE_MASK > pl, "upstream behind the cursor");
                    let bit = 1u64 << (fb & 63);
                    if fb >> 31 != 0 {
                        ready |= bit;
                    } else {
                        ready &= !bit;
                    }
                }
            }
        }
        Ok(())
    }

    /// The `vcs > 1` twin of [`Self::transmit_kernel_vc1`]: the same
    /// combine-once / patch-on-feedback cursor, consuming a whole
    /// aligned lane group per visit (one flit per channel per cycle).
    /// The ahead-patch argument is unchanged — the popped upstream lane
    /// belongs to a strictly-upstream *channel*, so its plane lands in a
    /// strictly later group than the one just consumed.
    fn transmit_kernel_vcn(&mut self, nw: usize, faulted: bool) -> Result<(), SimError> {
        let shift = self.planes.shift;
        let gw = 1u32 << shift;
        let gmask = u64::MAX >> (64 - gw);
        for w in 0..nw {
            let lanes = &self.st.lanes;
            let mut ready = lanes.owned.word(w) & lanes.has_input.word(w) & !lanes.bufs.full_word(w);
            if faulted {
                ready &= !lanes.dead.word(w);
            }
            let eject = self.eject.word(w);
            while ready != 0 {
                let b = ready.trailing_zeros();
                let g0 = b & !(gw - 1);
                let group = (ready >> g0) & gmask;
                ready &= !(gmask << g0);
                let base = (w * 64) as u32 + g0;
                let vc = self.mux_select(base >> shift, group)?;
                let fb = self.move_flit(base + vc, eject >> g0 & 1 != 0)?;
                if fb != NO_FEEDBACK && (fb & PLANE_MASK) >> 6 == w as u32 {
                    debug_assert!(fb & PLANE_MASK > base + gw - 1);
                    let bit = 1u64 << (fb & 63);
                    if fb >> 31 != 0 {
                        ready |= bit;
                    } else {
                        ready &= !bit;
                    }
                }
            }
        }
        Ok(())
    }

    /// The VC multiplexer of the channel at sweep position `pos` (`vcs >
    /// 1`): pick among the group's ready lanes — bit `vc` of `group` — and
    /// remember the winner.
    #[inline]
    fn mux_select(&mut self, pos: u32, group: u64) -> Result<u32, SimError> {
        let last = &mut self.st.lanes.mux_last[pos as usize];
        let vc = round_robin_select(last, group, self.planes.vcs.into());
        vc.ok_or(SimError::Internal { what: "a ready lane must be selectable" })
    }

    /// The per-lane readiness predicate, as the reference engine
    /// evaluates it; the sweeps debug-assert it of every lane they serve.
    #[inline]
    fn lane_ready(&self, pl: u32) -> bool {
        let (li, lanes) = (pl as usize, &self.st.lanes);
        // A dead lane transmits nothing. With `fault_abort` on, owned
        // lanes are never dead (casualties are aborted at the epoch
        // boundary); this check matters for the wedge-the-network test
        // knob. (`dead` is identically zero without a fault plan.)
        lanes.owner[li] != NONE
            && !lanes.dead.contains(pl)
            && self.has_input(li)
            && (self.eject.contains(pl) || !lanes.bufs.is_full(li))
    }

    /// Whether lane `li`'s upstream can supply a flit — the predicate the
    /// `has_input` mask mirrors. Its upstream is the path entry before it
    /// while that lane is held, else the source while it has flits left
    /// ([`Packets`](super::state::Packets)).
    pub(super) fn has_input(&self, li: usize) -> bool {
        let (lanes, pkts) = (&self.st.lanes, &self.st.pkts);
        let p = lanes.owner[li] as usize;
        if p == NONE as usize {
            return false;
        }
        let (held, i) = pkts.held_at(p as u32, lanes.hop[li]);
        match held.get(i.wrapping_sub(1)) {
            Some(&up) => !lanes.bufs.is_empty(up as usize),
            None => pkts.sent[p] < pkts.len[p],
        }
    }

    /// Move one flit into the lane at plane `pl` — the bit the sweep just
    /// served, and the lane's index in every array; `eject`: whether its
    /// channel ends at a node.
    ///
    /// No flit is stored: a lane buffers a run of its owner's flits, in
    /// order, so the one moving is the **tail** iff nothing can follow it
    /// — it left a source that has now sent the whole packet, or emptied
    /// the worm's oldest lane after the source sent its last — and the
    /// **header** iff nothing went before it: it lands in an empty lane
    /// no downstream lane has yet drawn from, which is the worm's head.
    ///
    /// Returns the cursor-patch feedback the transmit kernels consume:
    /// [`NO_FEEDBACK`], or the popped upstream lane's plane in the low
    /// bits with its recomputed ready state in bit 31.
    #[inline]
    fn move_flit(&mut self, pl: u32, eject: bool) -> Result<u32, SimError> {
        let li = pl as usize;
        let p = self.st.lanes.owner[li];
        let pi = p as usize;
        // The lane's neighbours on its owner's held window, read in one
        // slice: past either end of the window, `get` answers `None` —
        // the same compare that tells a lane fed by the source from one
        // fed by a lane, and the head from a lane with a downstream.
        let (held, i) = self.st.pkts.held_at(p, self.st.lanes.hop[li]);
        let (up, down) = (held.get(i.wrapping_sub(1)).copied(), held.get(i + 1).copied());
        let mut fb = NO_FEEDBACK;
        let is_tail = if let Some(up) = up {
            let Some(left) = self.st.lanes.bufs.pop(up as usize) else {
                return Err(SimError::Internal { what: "ready lane lost its upstream flit" });
            };
            debug_assert_eq!(self.st.lanes.owner[up as usize], p, "foreign upstream lane");
            // The pop leaves `up`'s buffer non-full; if it also drained
            // it, this lane's input is gone.
            fb = up;
            let drained = left == 0;
            if drained {
                self.st.lanes.has_input.clear(pl);
            }
            // `up` is exhausted when it is the oldest lane held and the
            // source is done.
            drained && i == 1 && self.st.pkts.sent[pi] == self.st.pkts.len[pi]
        } else if self.st.pkts.sent[pi] < self.st.pkts.len[pi] {
            self.st.pkts.sent[pi] += 1;
            let sent_all = self.st.pkts.sent[pi] == self.st.pkts.len[pi];
            if sent_all {
                let node = self.st.pkts.meta[pi].src;
                self.st.src.injecting[node as usize] = NONE;
                if self.st.src.queues.front(node).is_some() {
                    self.st.src.injectable.set(node);
                }
            }
            sent_all
        } else {
            return Err(SimError::Internal { what: "exhausted lanes are never ready" });
        };
        self.st.meas.moved += 1;
        if self.measuring() {
            self.obs.on_move(pl >> self.planes.shift);
        }
        if is_tail {
            if fb != NO_FEEDBACK {
                self.st.lanes.release(fb);
                self.st.pkts.window[pi].tail += 1;
            }
            self.st.lanes.has_input.clear(pl);
        }
        if eject {
            // The cold packet meta is only needed on the ejection path
            // (delivery accounting and completion); deferring the load
            // here keeps the ~80% of moves that just forward a flit off
            // the cold array entirely.
            let meta = self.st.pkts.meta[pi];
            // Consumption: the destination absorbs the flit immediately.
            self.st.pkts.delivered[pi] += 1;
            // Count flits of *measured* packets, matching delivered_pkts
            // (see the `engine` header's measurement-accounting notes).
            if meta.measured {
                self.st.meas.delivered_flits += 1;
            }
            if is_tail {
                self.st.lanes.release(pl);
                self.complete_packet(p, meta.gen_time, meta.measured)?;
            }
        } else if let Some(buffered) = self.st.lanes.bufs.push(li) {
            // The flit just buffered in `li` is input for the downstream
            // lane that pulls from `li` (if the worm has advanced past it).
            if let Some(down) = down {
                self.st.lanes.has_input.set(down);
            } else if buffered == 1 {
                // The header: it only ever lands in the worm's current
                // head lane (the downstream consumer that pops it exists
                // only after a later claim moves the head), so this push
                // is exactly the advance-request-becomes-true event — and
                // this branch never runs for the ejection channel.
                debug_assert_eq!(self.st.pkts.head_lane(p), pl);
                self.st.pkts.advance.set(p);
            }
        } else {
            return Err(SimError::Internal { what: "flit moved into a full lane buffer" });
        }
        if fb != NO_FEEDBACK {
            // Recompute the popped upstream lane's ready bit for the
            // cursor patch: the pop just cleared its full-bit, it is
            // still owned unless the tail released it (and a released
            // lane had no input left either way), so readiness reduces
            // to its own input being available — plus aliveness under an
            // active fault plan.
            if !is_tail
                && self.st.lanes.has_input.contains(fb)
                && !(self.faults.is_some() && self.st.lanes.dead.contains(fb))
            {
                fb |= 1 << 31;
            }
        }
        Ok(fb)
    }

    fn complete_packet(&mut self, p: u32, gen_time: u64, measured: bool) -> Result<(), SimError> {
        let done = self.st.now + 1; // flit arrives at the end of this cycle
        let meas = &mut self.st.meas;
        if measured {
            let lat = (done - gen_time) as f64;
            meas.latency.push(lat);
            meas.latency_hist.record(done - gen_time);
            meas.latency_batches.push(lat);
            meas.delivered_pkts += 1;
        }
        let meta = self.st.pkts.meta[p as usize];
        let tag = meta.tag;
        if let Traffic::Chain(c) = self.traffic {
            self.st.src.cursor += 1;
            for &d in &c.dependents[tag as usize] {
                let t = (done + c.overhead).max(c.msgs[d as usize].earliest);
                self.st.src.releases.push(Reverse((t, d)));
            }
        }
        self.obs.on_event(TraceEvent::Delivered { tag, time: done });
        if let Some(log) = &mut meas.deliveries {
            let (src, dst, len) = (meta.src, meta.dst, self.st.pkts.len[p as usize]);
            log.push(Delivery { src, dst, len, gen_time, done_time: done, tag });
        }
        self.retire(p, "completing an inactive packet")
    }

    /// Take `p` off `active` and recycle its slot, in O(1): `swap_remove`
    /// at the recorded position, re-recording the element it moves.
    /// (`active`'s order feeds the request shuffle, so how it is permuted
    /// here is part of the determinism contract.)
    pub(super) fn retire(&mut self, p: u32, what: &'static str) -> Result<(), SimError> {
        let pkts = &mut self.st.pkts;
        let idx = pkts.active_pos[p as usize] as usize;
        if pkts.active.get(idx) != Some(&p) {
            return Err(SimError::Internal { what });
        }
        pkts.active.swap_remove(idx);
        if let Some(&moved) = pkts.active.get(idx) {
            pkts.active_pos[moved as usize] = idx as u32;
        }
        // Already clear on completion (the bit dies with the claim of the
        // ejection lane), but slot-recycling hygiene is cheap to make total.
        pkts.advance.clear(p);
        pkts.free.push(p);
        Ok(())
    }
}

#[cfg(all(test, feature = "reference-engine"))]
mod tests {
    use super::round_robin_select;

    /// The engine's mask select is the oracle's round-robin `VcMux` on
    /// every input: n ≤ 6 VCs, every `last`, every ready mask — the same
    /// choice, and the same memory after it.
    #[test]
    fn select_mask_equals_select_on_every_input() {
        use crate::reference::{VcMux, VcMuxPolicy};
        for n in 1..=6u32 {
            let all = vec![true; n as usize];
            for last in 0..n {
                for mask in 0..1u64 << n {
                    // A lone ready VC wins: that sets the oracle's memory.
                    let mut m = VcMux::new(VcMuxPolicy::RoundRobin);
                    let lone: Vec<bool> = (0..n).map(|i| i == last).collect();
                    assert_eq!(m.select(&lone), Some(last as usize));
                    let ready: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                    let mut packed = last as u8;
                    let got = round_robin_select(&mut packed, mask, n);
                    let want = m.select(&ready);
                    assert_eq!(got.map(|i| i as usize), want, "n={n} last={last} mask={mask:b}");
                    // With every VC ready the pick is `last + 1`: the
                    // memories agree.
                    let next = round_robin_select(&mut packed, (1 << n) - 1, n);
                    assert_eq!(next.map(|i| i as usize), m.select(&all), "n={n} last={last} mask={mask:b}");
                }
            }
        }
        let mut last = 63u8;
        assert_eq!(round_robin_select(&mut last, 1 << 63 | 1, 64), Some(0));
        assert_eq!(round_robin_select(&mut last, 0, 1), None);
    }
}
