//! The routing function as a lookup: [`RouteLogic`] keyed by what it
//! actually depends on.
//!
//! The paper's networks are *self-routing*: a destination-tag switch at
//! stage `G_i` consults **one** digit `t_i` of the destination, and a
//! turnaround switch at stage `j` makes one `FirstDifference` comparison
//! and then reads digit `d_j` (§2–3, Fig. 7). [`RouteTable::build`]
//! therefore stores, per network,
//!
//! * a `stage × destination` **digit row table** (`n · nodes` bytes),
//!   filled by calling the same [`UnidirKind::tag_digit`] /
//!   [`Geometry::digit`] the logic calls;
//! * for the BMIN, the **powers** `k^j` each stage's down-subtree bound
//!   is made of: a forward-arriving header turns at switch `(j, s)`
//!   exactly when `dst` is one of the `k^(j+1)` leaves below it
//!   (`dst / k^(j+1) == s / k^j`) — which is
//!   `j == FirstDifference(S, D)` for every source `S` that can reach the
//!   switch going up, so the source drops out of the function;
//!
//! and answers a `(channel, destination)` query with the [`PortSpan`]
//! the graph computes for the chosen ports — an arithmetic progression of
//! ids, so the table copies no channel id, the graph stores none, and
//! the table holds the graph by `Arc`. Building is `O(n · nodes)` with no
//! route walk; the exhaustive tests pin the table to [`RouteLogic`],
//! contents *and* order, on every reachable pair.
//!
//! The **dense** layout — one CSR cell per `(destination, channel)` — is
//! constructed only by [`RouteTable::masked`]: a fault epoch's candidate
//! set is a per-cell filtered subset, not a function of one digit.
//! [`RouteTable::route`] answers from either layout with one
//! non-allocating iterator, [`Route`].
//!
//! [`UnidirKind::tag_digit`]: minnet_topology::UnidirKind::tag_digit
//! [`Geometry::digit`]: minnet_topology::Geometry::digit
//! [`RouteLogic`]: crate::RouteLogic

use minnet_topology::{
    ChannelId, Divisor, NetworkGraph, NetworkKind, NodeAddr, NodeId, PortSpan, Side,
};
use std::sync::Arc;

/// The routing function of one network: for every reachable
/// `(arrival channel, destination)` pair, the candidate output channels in
/// exactly the order [`crate::RouteLogic::candidates`] produces them.
///
/// A table from [`RouteTable::build`] is `n · nodes` bytes (see the
/// module docs); one from
/// [`RouteTable::masked`] is dense. Both are immutable — share them
/// freely across sweep threads.
#[derive(Clone, Debug)]
pub struct RouteTable {
    nodes: u32,
    repr: Repr,
}

/// One routing decision's candidates, in order, as [`RouteTable::route`]
/// answers it: the span a built table computes, or a masked table's
/// stored cell. Never allocates; clone it to look ahead.
#[derive(Clone, Debug)]
pub enum Route<'a> {
    /// A built table's answer: a run of one switch's output ports.
    Span(PortSpan),
    /// A masked table's CSR cell.
    Cell(std::slice::Iter<'a, ChannelId>),
}

impl Iterator for Route<'_> {
    type Item = ChannelId;

    #[inline]
    fn next(&mut self) -> Option<ChannelId> {
        match self {
            Route::Span(span) => span.next(),
            Route::Cell(cell) => cell.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Route::Span(span) => span.size_hint(),
            Route::Cell(cell) => cell.size_hint(),
        }
    }
}

impl ExactSizeIterator for Route<'_> {}

#[derive(Clone, Debug)]
enum Repr {
    /// The healthy network: candidates are spans the graph computes.
    Compact {
        net: Arc<NetworkGraph>,
        /// `digits[stage * nodes + dst]` — the output port a stage-`stage`
        /// switch sends a `dst`-bound header to.
        digits: Vec<u8>,
        /// `k^j` for `j` in `0..=n` on a BMIN — switch `(j, s)` has the
        /// `k^(j+1)` destinations from `s / k^j · k^(j+1)` below it;
        /// empty for unidirectional networks.
        kpow: Vec<Divisor>,
    },
    /// A fault epoch: CSR cells, destination-major
    /// (`cell = dst · nch + channel`), `starts` indexing into `cands`.
    Dense {
        nch: u32,
        starts: Vec<u32>,
        cands: Vec<ChannelId>,
    },
}

impl RouteTable {
    /// Tabulate the routing function of `net` (the table keeps the
    /// handle; its candidates are spans the graph computes).
    ///
    /// # Errors
    ///
    /// Reports a radix whose digits do not fit the `u8` rows (`k > 256`,
    /// beyond what the graph's `u8` port indices admit anyway).
    pub fn build(net: &Arc<NetworkGraph>) -> Result<RouteTable, String> {
        let g = net.geometry;
        let nodes = g.nodes();
        let mut digits = Vec::with_capacity(g.n() as usize * nodes as usize);
        for stage in 0..g.n() {
            for dst in 0..nodes {
                let digit = match net.kind {
                    NetworkKind::Unidir { wiring, .. } => {
                        wiring.tag_digit(&g, NodeAddr(dst), stage)
                    }
                    NetworkKind::Bmin => g.digit(NodeAddr(dst), stage),
                };
                digits.push(
                    u8::try_from(digit)
                        .map_err(|_| format!("radix {} digits overflow the u8 rows", g.k()))?,
                );
            }
        }
        let kpow = match net.kind {
            NetworkKind::Unidir { .. } => Vec::new(),
            NetworkKind::Bmin => (0..=g.n()).map(|j| Divisor::new(g.kpow(j))).collect(),
        };
        Ok(RouteTable {
            nodes,
            repr: Repr::Compact {
                net: Arc::clone(net),
                digits,
                kpow,
            },
        })
    }

    /// [`Self::build`]; `threads` is ignored. The build is microseconds
    /// and has nothing to parallelise — the name survives only because
    /// the frozen `benchmark/` calls it.
    pub fn build_parallel(net: &Arc<NetworkGraph>, _threads: usize) -> Result<RouteTable, String> {
        RouteTable::build(net)
    }

    /// The output channels a header arriving over `at` may request next on
    /// its way to `dst` — identical (contents *and* order) to what
    /// [`crate::RouteLogic::candidates`] computes. Empty when `at`
    /// terminates at a node.
    ///
    /// On `(at, dst)` pairs no legal route reaches the answer is
    /// unspecified but harmless: some run of the arrival switch's own
    /// output channels (the digit rule applied anyway) from a built
    /// table, possibly empty from a masked one. The engine never asks.
    ///
    /// Deliberately out of line: it runs once per hop, not per cycle, and
    /// inlining both layouts' lookups into the engine's cycle loop cost
    /// that loop more (≈ 1 % on 64-node sweeps) than the call does.
    #[inline(never)]
    pub fn route(&self, at: ChannelId, dst: NodeId) -> Route<'_> {
        match &self.repr {
            Repr::Compact { net, digits, kpow } => {
                let Some((sw, side)) = net.head(at) else {
                    return Route::Span(PortSpan::default());
                };
                let stage = usize::from(sw.stage);
                // Only a forward-arriving BMIN header has a choice to
                // make: up any forward port until `dst` is below — which
                // it is iff `dst / k^(j+1) == s / k^j` (see `build_bmin`).
                if let (Side::Left, Some(pow)) = (side, kpow.get(stage..stage + 2)) {
                    if pow[1].div_rem(dst).0 != pow[0].div_rem(sw.index).0 {
                        let k = net.out_port_codes() / 2;
                        return Route::Span(net.out_span(sw, k, 2 * k));
                    }
                }
                let digit = u32::from(digits[stage * self.nodes as usize + dst as usize]);
                Route::Span(net.out_span(sw, digit, digit + 1))
            }
            Repr::Dense { nch, starts, cands } => {
                let cell = dst as usize * *nch as usize + at as usize;
                Route::Cell(cands[starts[cell] as usize..starts[cell + 1] as usize].iter())
            }
        }
    }

    /// [`Self::route`] as a list — for tests and tools; the engine walks
    /// the iterator.
    pub fn candidates(&self, at: ChannelId, dst: NodeId) -> Vec<ChannelId> {
        self.route(at, dst).collect()
    }

    /// The fault-masked variant of this table: every candidate list is
    /// filtered down to channels over which the destination is still
    /// **deliverable** under `dead_channel` — alive *and* with a live
    /// continuation all the way to the ejection channel. Filtering by
    /// deliverability (not mere liveness) is what makes the adaptive
    /// networks degrade gracefully: a BMIN up-phase choice or DMIN lane
    /// whose subtree dead-ends at the fault is excluded *before* the worm
    /// commits to it, so a header that can advance can always finish —
    /// and an empty masked candidate list at a non-ejection cell is a
    /// definitive "disconnected from here" signal, not a maybe.
    ///
    /// Candidate order is preserved (the mask only deletes entries). An
    /// all-live mask short-circuits to a plain clone (every candidate of
    /// an unmasked table is deliverable by construction); a faulted mask
    /// materialises the dense layout — `O(channels × nodes)` cells, the
    /// one place it exists.
    ///
    /// Deliverability is computed per destination in one transmit-order
    /// pass: the engine's downstream-first channel order visits every
    /// candidate before the channel that requests it. The same pass
    /// filters each cell, so every cell's route is computed once; the
    /// destination's cells are then copied into the CSR in channel order.
    ///
    /// # Errors
    ///
    /// Reports a mask whose length does not match the channel count.
    pub fn masked(&self, net: &NetworkGraph, dead_channel: &[bool]) -> Result<RouteTable, String> {
        let nch = net.num_channels();
        if dead_channel.len() != nch {
            return Err(format!(
                "fault mask covers {} channels but the network has {nch}",
                dead_channel.len()
            ));
        }
        if !dead_channel.contains(&true) {
            // Empty-fault fast path: nothing can be masked out.
            return Ok(self.clone());
        }
        let nodes = self.nodes as usize;
        let order = net.transmit_order();
        // deliver[ch] — the current `dst` can still be reached from the
        // head of `ch`; every candidate's entry is final before its
        // requester's cell is filtered, so one pass both decides and
        // filters. `row` holds the destination's surviving candidates
        // in transmit order (a dead channel's cell keeps its live ones),
        // `cell[ch]` where `ch`'s run of them sits.
        let mut deliver = vec![false; nch];
        let (mut row, mut cell) = (Vec::new(), vec![(0u32, 0u32); nch]);
        let mut starts = Vec::with_capacity(nch * nodes + 1);
        let mut cands = Vec::new();
        for dst in 0..nodes as NodeId {
            row.clear();
            let eject = net.eject(dst);
            for &ch in order {
                let route = self.route(ch, dst);
                debug_assert!(
                    route
                        .clone()
                        .all(|c| net.channel(c).topo_rank < net.channel(ch).topo_rank),
                    "a candidate of {ch} is not downstream of it"
                );
                let lo = row.len() as u32;
                row.extend(route.filter(|&c| deliver[c as usize]));
                let hi = row.len() as u32;
                cell[ch as usize] = (lo, hi);
                deliver[ch as usize] = !dead_channel[ch as usize] && (hi > lo || eject == ch);
            }
            for &(lo, hi) in &cell {
                starts.push(cands.len() as u32);
                cands.extend_from_slice(&row[lo as usize..hi as usize]);
            }
        }
        starts.push(cands.len() as u32);
        cands.shrink_to_fit();
        Ok(RouteTable {
            nodes: self.nodes,
            repr: Repr::Dense {
                nch: nch as u32,
                starts,
                cands,
            },
        })
    }

    /// Approximate resident size in bytes of what the table **owns** —
    /// digit rows and stage powers, or the dense CSR arrays. The graph a
    /// built table points into is accounted by
    /// [`NetworkGraph::approx_bytes`], not here.
    pub fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
            + match &self.repr {
                Repr::Compact { digits, kpow, .. } => {
                    digits.len() as u64 + std::mem::size_of_val(&kpow[..]) as u64
                }
                Repr::Dense { starts, cands, .. } => (starts.len() as u64 + cands.len() as u64) * 4,
            }
    }
}

#[cfg(test)]
impl RouteTable {
    /// Number of destination nodes the table was built for.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteLogic;
    use minnet_topology::{build_bmin, build_unidir, Endpoint, Geometry, UnidirKind};

    const WIRINGS: [UnidirKind; 4] = [
        UnidirKind::Cube,
        UnidirKind::Butterfly,
        UnidirKind::Omega,
        UnidirKind::Baseline,
    ];

    /// TMIN and DMIN(d=2) under every wiring, plus the BMIN.
    fn lineup(g: Geometry) -> Vec<Arc<NetworkGraph>> {
        let mut nets: Vec<_> = WIRINGS
            .iter()
            .flat_map(|&w| [1, 2].map(|d| Arc::new(build_unidir(g, w, d))))
            .collect();
        nets.push(Arc::new(build_bmin(g)));
        nets
    }

    fn nets() -> Vec<Arc<NetworkGraph>> {
        lineup(Geometry::new(4, 3))
    }

    /// Walks `src → dst` routes with [`RouteLogic`] over every channel
    /// any legal route may visit, asserting the table's answer — contents
    /// and order — at each one.
    struct Walker<'a> {
        net: &'a NetworkGraph,
        logic: RouteLogic,
        table: RouteTable,
        stamp: Vec<u32>,
        gen: u32,
        frontier: Vec<ChannelId>,
        expect: Vec<ChannelId>,
    }

    impl<'a> Walker<'a> {
        fn new(net: &'a Arc<NetworkGraph>) -> Walker<'a> {
            Walker {
                net,
                logic: RouteLogic::for_kind(net.kind),
                table: RouteTable::build(net).unwrap(),
                stamp: vec![0; net.num_channels()],
                gen: 0,
                frontier: Vec::new(),
                expect: Vec::new(),
            }
        }

        fn check(&mut self, src: NodeId, dst: NodeId) {
            self.gen += 1;
            self.frontier.push(self.net.inject(src));
            while let Some(at) = self.frontier.pop() {
                self.logic
                    .candidates(self.net, src, dst, at, &mut self.expect);
                assert_eq!(
                    self.table.candidates(at, dst),
                    &self.expect[..],
                    "{:?} {:?}: {src} → {dst} at channel {at}",
                    self.net.kind,
                    self.net.geometry
                );
                for &c in &self.expect {
                    if std::mem::replace(&mut self.stamp[c as usize], self.gen) != self.gen {
                        self.frontier.push(c);
                    }
                }
            }
        }
    }

    /// The table against its definition: every src, dst and reachable
    /// channel, on every network family, wiring and a spread of radices
    /// (non-power-of-two `k` included).
    #[test]
    fn table_equals_logic_on_every_reachable_pair() {
        for (k, n) in [(2, 3), (3, 3), (4, 3), (8, 2), (4, 4)] {
            for net in lineup(Geometry::new(k, n)) {
                let mut w = Walker::new(&net);
                for src in 0..net.geometry.nodes() {
                    for dst in (0..net.geometry.nodes()).filter(|&d| d != src) {
                        w.check(src, dst);
                    }
                }
            }
        }
    }

    /// The same check on sampled pairs at the scales the exhaustive walk
    /// cannot afford: 1024, 4096 and 16 384 terminals.
    #[test]
    fn table_equals_logic_on_sampled_pairs_at_scale() {
        for g in [
            Geometry::new(32, 2),
            Geometry::new(4, 6),
            Geometry::new(4, 7),
        ] {
            for net in [
                Arc::new(build_unidir(g, UnidirKind::Cube, 1)),
                Arc::new(build_unidir(g, UnidirKind::Butterfly, 2)),
                Arc::new(build_bmin(g)),
            ] {
                let mut w = Walker::new(&net);
                let nodes = u64::from(g.nodes());
                let mut z = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..600 {
                    z = z
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let (src, dst) = (((z >> 33) % nodes) as u32, ((z >> 13) % nodes) as u32);
                    if src != dst {
                        w.check(src, dst);
                    }
                }
                // Neighbours and antipodes: the shortest and longest turns.
                w.check(0, 1);
                w.check(0, g.nodes() - 1);
                w.check(g.nodes() - 1, g.nodes() - 2);
            }
        }
    }

    /// What `candidates` promises on pairs no legal route reaches: no
    /// panic, and a contiguous run of the arrival switch's own outputs.
    #[test]
    fn unreachable_pairs_answer_in_bounds() {
        for net in lineup(Geometry::new(3, 3)) {
            let table = RouteTable::build(&net).unwrap();
            for ch in 0..net.num_channels() as ChannelId {
                for dst in 0..net.geometry.nodes() {
                    let cands = table.candidates(ch, dst);
                    match net.channel(ch).dst {
                        Endpoint::Node(_) => assert!(cands.is_empty()),
                        Endpoint::Switch { sw, .. } => {
                            let outs: Vec<ChannelId> = net.out_all(sw).collect();
                            assert!(
                                outs.windows(cands.len().max(1)).any(|w| w == cands),
                                "channel {ch} → {dst}: {cands:?} not a run of {outs:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ejection_cells_are_empty() {
        for net in nets() {
            let table = RouteTable::build(&net).unwrap();
            for dst in 0..net.geometry.nodes() {
                assert!(table.candidates(net.eject(dst), dst).is_empty());
            }
        }
    }

    /// An all-live mask takes the clone fast path: same candidates in
    /// every cell, and still the compact layout.
    #[test]
    fn masked_with_all_live_mask_is_a_clone() {
        for net in nets() {
            let table = RouteTable::build(&net).unwrap();
            let masked = table
                .masked(&net, &vec![false; net.num_channels()])
                .unwrap();
            assert_eq!(table.approx_bytes(), masked.approx_bytes());
            for ch in 0..net.num_channels() as u32 {
                for dst in 0..net.geometry.nodes() {
                    assert_eq!(
                        table.candidates(ch, dst),
                        masked.candidates(ch, dst),
                        "channel {ch} → {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_rejects_wrong_mask_length() {
        let net = &nets()[0];
        let table = RouteTable::build(net).unwrap();
        assert!(table.masked(net, &[false; 3]).is_err());
    }

    /// `masked` against a brute-force oracle: on every reachable cell the
    /// masked candidates are the logic's candidates minus those with no
    /// live path to the ejection channel (plain DFS, no memo).
    #[test]
    fn masked_equals_brute_force_deliverability() {
        fn live(
            net: &NetworkGraph,
            logic: RouteLogic,
            dead: &[bool],
            (src, dst): (NodeId, NodeId),
            c: ChannelId,
        ) -> bool {
            let mut next = Vec::new();
            logic.candidates(net, src, dst, c, &mut next);
            !dead[c as usize]
                && (c == net.eject(dst)
                    || next.iter().any(|&d| live(net, logic, dead, (src, dst), d)))
        }
        for g in [
            Geometry::new(2, 3),
            Geometry::new(4, 2),
            Geometry::new(3, 3),
        ] {
            for net in lineup(g) {
                let logic = RouteLogic::for_kind(net.kind);
                // Every seventh switch-to-switch channel dies.
                let mut dead = vec![false; net.num_channels()];
                let inner = (0..net.num_channels()).filter(|&c| {
                    let ch = net.channel(c as ChannelId);
                    ch.src.switch().is_some() && ch.dst.switch().is_some()
                });
                inner.step_by(7).for_each(|c| dead[c] = true);
                let masked = RouteTable::build(&net)
                    .unwrap()
                    .masked(&net, &dead)
                    .unwrap();
                let mut cands = Vec::new();
                for src in 0..g.nodes() {
                    for dst in (0..g.nodes()).filter(|&d| d != src) {
                        let mut frontier = vec![net.inject(src)];
                        while let Some(at) = frontier.pop() {
                            logic.candidates(&net, src, dst, at, &mut cands);
                            let want: Vec<ChannelId> = cands
                                .iter()
                                .copied()
                                .filter(|&c| live(&net, logic, &dead, (src, dst), c))
                                .collect();
                            assert_eq!(
                                masked.candidates(at, dst),
                                &want[..],
                                "{:?}: {src} → {dst} at channel {at}",
                                net.kind
                            );
                            frontier.extend_from_slice(&cands);
                        }
                    }
                }
            }
        }
    }

    /// Walk every masked candidate chain: a nonempty cell must lead to a
    /// nonempty (or ejection) cell — no masked route may dead-end.
    fn assert_no_dead_ends(net: &NetworkGraph, masked: &RouteTable) {
        for src in 0..net.geometry.nodes() {
            for dst in 0..net.geometry.nodes() {
                if src == dst {
                    continue;
                }
                let mut frontier = vec![net.inject(src)];
                let mut seen = vec![false; net.num_channels()];
                while let Some(at) = frontier.pop() {
                    for c in masked.route(at, dst) {
                        if seen[c as usize] {
                            continue;
                        }
                        seen[c as usize] = true;
                        assert!(
                            c == net.eject(dst) || !masked.candidates(c, dst).is_empty(),
                            "masked route {src}→{dst} dead-ends at channel {c}"
                        );
                        frontier.push(c);
                    }
                }
            }
        }
    }

    #[test]
    fn bmin_single_fault_keeps_all_pairs_deliverable() {
        // k^t alternative paths: one dead inter-stage link must leave
        // every (src, dst) cell deliverable, with no route dead-ending.
        let net = Arc::new(build_bmin(Geometry::new(4, 3)));
        let table = RouteTable::build(&net).unwrap();
        let victim = (0..net.num_channels() as u32)
            .find(|&c| {
                let ch = net.channel(c);
                ch.src.switch().is_some() && ch.dst.switch().is_some()
            })
            .unwrap();
        let mut dead = vec![false; net.num_channels()];
        dead[victim as usize] = true;
        let masked = table.masked(&net, &dead).unwrap();
        for src in 0..net.geometry.nodes() {
            for dst in 0..net.geometry.nodes() {
                if src != dst {
                    assert!(
                        !masked.candidates(net.inject(src), dst).is_empty(),
                        "{src} → {dst} lost deliverability"
                    );
                }
            }
        }
        assert_no_dead_ends(&net, &masked);
    }

    #[test]
    fn tmin_single_fault_disconnects_crossing_pairs_only() {
        let net = Arc::new(build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 1));
        let table = RouteTable::build(&net).unwrap();
        let victim = (0..net.num_channels() as u32)
            .find(|&c| {
                let ch = net.channel(c);
                ch.src.switch().is_some() && ch.dst.switch().is_some()
            })
            .unwrap();
        let mut dead = vec![false; net.num_channels()];
        dead[victim as usize] = true;
        let masked = table.masked(&net, &dead).unwrap();
        // Exactly the pairs whose unique path used the victim lose their
        // route; everything else is untouched.
        let mut disconnected = 0;
        for src in 0..net.geometry.nodes() {
            for dst in 0..net.geometry.nodes() {
                if src == dst {
                    continue;
                }
                let inj = net.inject(src);
                let uses_victim = {
                    let mut at = inj;
                    let mut hit = false;
                    while let Some(&next) = table.candidates(at, dst).first() {
                        if next == victim {
                            hit = true;
                        }
                        at = next;
                    }
                    hit
                };
                let masked_empty = masked.candidates(inj, dst).is_empty();
                assert_eq!(uses_victim, masked_empty, "{src} → {dst}");
                disconnected += usize::from(masked_empty);
            }
        }
        assert!(disconnected > 0, "an inter-stage link must carry some pair");
        assert_no_dead_ends(&net, &masked);
    }

    #[test]
    fn dmin_masked_candidates_skip_the_dead_lane() {
        // Dilated links: killing one parallel channel removes it from the
        // candidate lists but keeps every pair deliverable via its twin.
        let net = Arc::new(build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 2));
        let table = RouteTable::build(&net).unwrap();
        let victim = (0..net.num_channels() as u32)
            .find(|&c| {
                let ch = net.channel(c);
                ch.src.switch().is_some() && ch.dst.switch().is_some()
            })
            .unwrap();
        let mut dead = vec![false; net.num_channels()];
        dead[victim as usize] = true;
        let masked = table.masked(&net, &dead).unwrap();
        let mut shrunk = 0;
        for ch in 0..net.num_channels() as u32 {
            for dst in 0..net.geometry.nodes() {
                let full = table.candidates(ch, dst);
                let kept = masked.candidates(ch, dst);
                assert!(!kept.contains(&victim), "dead channel offered");
                if full.contains(&victim) {
                    assert_eq!(kept.len(), full.len() - 1);
                    shrunk += 1;
                }
            }
        }
        assert!(shrunk > 0);
        for src in 0..net.geometry.nodes() {
            for dst in 0..net.geometry.nodes() {
                if src != dst {
                    assert!(
                        !masked.candidates(net.inject(src), dst).is_empty(),
                        "dilation must tolerate a single link fault"
                    );
                }
            }
        }
        assert_no_dead_ends(&net, &masked);
    }

    /// What the table owns is digit rows plus a power per stage — the
    /// 64-node tables are a few hundred bytes, a dense masked one is not.
    #[test]
    fn built_table_is_compact_and_masked_is_dense() {
        let g = Geometry::new(4, 3);
        for net in [
            Arc::new(build_unidir(g, UnidirKind::Cube, 1)),
            Arc::new(build_bmin(g)),
        ] {
            let table = RouteTable::build(&net).unwrap();
            assert_eq!(table.nodes(), 64);
            assert!(table.approx_bytes() < 1024, "{}", table.approx_bytes());
            let mut dead = vec![false; net.num_channels()];
            dead[net.num_channels() / 2] = true;
            let masked = table.masked(&net, &dead).unwrap();
            assert!(masked.approx_bytes() > 4 * 64 * net.num_channels() as u64);
        }
    }
}
