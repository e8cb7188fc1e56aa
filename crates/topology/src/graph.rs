//! The static network-graph model shared by all four MINs.
//!
//! A network is a set of **switches** arranged in stages, **terminals**
//! (processor nodes) and unidirectional **channels**. A channel connects a
//! source endpoint (a node's injection port or a switch output port) to a
//! destination endpoint (a switch input port or a node's ejection port).
//!
//! Ports may carry several physical **lanes** (channel dilation, Fig. 1b);
//! each lane is a separate channel in the graph. Virtual channels (Fig. 1c)
//! are *not* represented here — they share one physical channel and are a
//! property of the simulation engine.
//!
//! For the bidirectional MIN (Fig. 1d), a switch has `k` ports on its left
//! (node-facing) side and `k` on its right side; each port is a pair of
//! opposite channels. We label switch output ports with a single code:
//! `0..k` are the left-side outputs `l_0..l_{k-1}` (carrying *backward*
//! traffic toward the nodes) and `k..2k` are the right-side outputs
//! `r_0..r_{k-1}` (*forward*, away from the nodes). Unidirectional switches
//! only use codes `0..k` (their right-side outputs).
//!
//! ## Storage
//!
//! The paper defines its networks as functions — every connection pattern
//! is a digit permutation — and the graph keeps them that way. A channel
//! id *is* a position in the wiring: both families number channels
//! level-major, so [`NetworkGraph::channel`] computes the descriptor from
//! the id ([`crate::unidir`] and [`crate::bmin`] each hold one closed
//! form) and no channel table exists. Nor does a transmit order: ranks
//! are whole levels, so a channel's place in it is its id moved by its
//! level's offset ([`NetworkGraph::position`]). Nor an adjacency list:
//! the lanes of a run of output ports on one side of a switch are an
//! arithmetic progression of ids — a [`PortSpan`] — and so are the
//! nodes' injection and ejection channels:
//!
//! | question                        | first id                             | step          |
//! |---------------------------------|--------------------------------------|---------------|
//! | unidir port `c` of `(s, i)`     | `N + s·N·d + (i·k + c)·d'`           | 1             |
//! | BMIN left code `c` of `(j, i)`  | `2N·j + 2(i·k + c) + 1`              | 2             |
//! | BMIN right port `q` of `(j, i)` | `2N·(j+1) + 2(i[j := q]·k + i_j)`    | `2k^(j+1)`    |
//! | inject / eject `a`, unidir      | `a` / `N + (n−1)·N·d + a`            | 1             |
//! | inject / eject `a`, BMIN        | `2a` / `2a + 1`                      | 2             |
//!
//! (`d'` is the port's lane count: `d`, or 1 on the last stage, whose
//! switch's codes then run on one lane each.) What is stored is the
//! geometry's [`Divisor`]s — `k^0 ..= k^n`, `N/k` and the dilation, 16 B
//! each — and nothing that grows with the channels or the nodes but the
//! [`NetworkGraph::transmit_order`] list, built only when asked for.
//! Both wirings number switches stage-major, so a switch's stage and
//! index are its id divided by `N/k`. Per-switch *input* lists are not
//! stored either: nothing routes by them, and [`NetworkGraph::validate`]
//! derives what it checks of them from the descriptors. What the
//! representation can hold — `k ≤ 256`, under 2²² switches, under 2³¹
//! nodes — is stated once, by [`check_limits`], which every entry point
//! taking a geometry from outside calls before anything is allocated.

use crate::address::{Divisor, Geometry};
use crate::{bmin, unidir};
use std::sync::OnceLock;

/// Index of a node (terminal). Equals the node's address value.
pub type NodeId = u32;
/// Index of a switch within the graph's switch table.
pub type SwitchId = u32;
/// Index of a channel: its position in the level-major wiring.
pub type ChannelId = u32;

/// Which side of a bidirectional switch a port is on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The node-facing side (the paper's `l_i` ports).
    Left,
    /// The far side (the paper's `r_i` ports).
    Right,
}

/// Direction of a channel relative to the processor nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Away from the nodes. All channels of a unidirectional MIN are
    /// `Forward`; in a BMIN these are the "up" channels of the fat tree.
    Forward,
    /// Toward the nodes ("down" / the paper's backward channels).
    Backward,
}

/// One end of a channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A processor node (source of an injection channel / destination of an
    /// ejection channel).
    Node(NodeId),
    /// A switch port.
    Switch {
        /// The switch.
        sw: SwitchId,
        /// Which side of the switch.
        side: Side,
        /// Port index on that side, `0..k`.
        port: u8,
    },
}

impl Endpoint {
    /// The switch id, if this endpoint is a switch port.
    pub fn switch(&self) -> Option<SwitchId> {
        match self {
            Endpoint::Switch { sw, .. } => Some(*sw),
            Endpoint::Node(_) => None,
        }
    }

    /// The node id, if this endpoint is a terminal.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Endpoint::Node(n) => Some(*n),
            Endpoint::Switch { .. } => None,
        }
    }
}

/// The wirings' narrowing of a port, lane or level — all below 256 for
/// any geometry [`check_limits`] admits.
#[inline]
pub(crate) fn byte(v: u32) -> u8 {
    u8::try_from(v).expect("port, lane or level past a byte: geometry outside graph::check_limits")
}

/// A unidirectional communication channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelDesc {
    /// Transmitting end.
    pub src: Endpoint,
    /// Receiving end (where the single-flit buffer sits).
    pub dst: Endpoint,
    /// Connection level. For unidirectional MINs: `0` is node→G0, `i` is
    /// G_{i-1}→G_i, `n` is G_{n-1}→node. For BMINs: level `ℓ` is the link
    /// bundle between stage `ℓ-1` and stage `ℓ` (level 0 touches the
    /// nodes), in either direction.
    pub level: u8,
    /// Lane index within the (dilated) port, `0..d`.
    pub lane: u8,
    /// Forward (away from nodes) or backward (toward nodes).
    pub dir: Direction,
    /// Position in the worm-advance processing order: channels with smaller
    /// rank are strictly *downstream* (closer to delivery) of any channel a
    /// worm can hold while requesting them. Processing transmissions in
    /// ascending rank lets an unblocked worm advance one hop on every
    /// channel it spans in a single cycle.
    pub topo_rank: u16,
}

/// What a [`NetworkGraph`] and the engine above it can index, as a
/// condition on the geometry: radix at most 256 ([`Endpoint::port`] is a
/// byte), under 2³¹ nodes (bit 31 of the engine's packed lane words marks
/// a node id) and under 2²² switches (`n · N/k`, either builder) — which
/// keeps `2n · N`, the BMIN's channel count, under 2³¹ at any admitted
/// radix, so channel ids — and the [`PortSpan`] arithmetic on them — fit
/// those lane words. Returns `g` so callers chain it after
/// [`Geometry::try_new`].
///
/// # Errors
///
/// Names the offending parameter first (`k = 300: …`), as the CLI, the
/// `.scn` parser and the job service report it.
pub fn check_limits(g: Geometry) -> Result<Geometry, String> {
    let (k, n, nodes) = (g.k(), g.n(), g.nodes());
    let sw = u64::from(n) * u64::from(nodes / k);
    if k > 256 {
        Err(format!("k = {k}: at most 256, a switch port is a byte"))
    } else if nodes >= 1 << 31 {
        Err(format!("k = {k}, n = {n}: {nodes} nodes, the engine's lane words end at 2^31"))
    } else if sw >= 1 << 22 {
        Err(format!(
            "k = {k}, n = {n}: {sw} switches, at most 2^22 keep channel ids in a u32"
        ))
    } else {
        Ok(g)
    }
}

/// A switch (one crossbar) in the network. Pure metadata — its output
/// ports' channels are computed from it by [`NetworkGraph::out_span`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchDesc {
    /// Stage index `G_stage`.
    pub stage: u8,
    /// Index of the switch within its stage.
    pub index: u32,
}

/// One end of a channel as the wirings compute it: an [`Endpoint`] whose
/// switch is still its `(stage, index)` — all a routing decision reads of
/// it — and whose port is not yet narrowed.
#[derive(Clone, Copy)]
pub(crate) enum End {
    Node(NodeId),
    Port(SwitchDesc, Side, u32),
}

/// Which of the paper's network families a graph instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NetworkKind {
    /// Unidirectional MIN (Fig. 4) with one of the Delta-class wirings
    /// and channel dilation `d` (1 = TMIN/VMIN, 2 = DMIN, Fig. 5).
    Unidir {
        /// The connection-pattern family.
        wiring: crate::unidir::UnidirKind,
        /// Channel dilation of inter-stage ports.
        dilation: u8,
    },
    /// Bidirectional butterfly MIN (fat tree, Fig. 6).
    Bmin,
}

impl NetworkKind {
    /// The channel dilation of inter-stage ports (1 for BMIN).
    pub fn dilation(&self) -> u8 {
        match self {
            NetworkKind::Unidir { dilation, .. } => *dilation,
            NetworkKind::Bmin => 1,
        }
    }

    /// Whether the network is bidirectional.
    pub fn is_bidirectional(&self) -> bool {
        matches!(self, NetworkKind::Bmin)
    }
}

/// Where the channels of one level and direction sit in the transmit
/// order: position `(id + delta) >> shift`, exactly — ranks are whole
/// levels, in id order within. `shift` is 1 only for the BMIN, whose ids
/// interleave a link's two channels; `delta` wraps (a level may move
/// down). The default is the identity: an order that is the ids themselves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LevelPositions {
    pub(crate) shift: u32,
    pub(crate) delta: u32,
}

impl LevelPositions {
    /// The position of `id`, a channel of this level and direction.
    #[inline]
    pub fn of(self, id: ChannelId) -> u32 {
        id.wrapping_add(self.delta) >> self.shift
    }

    /// The positions of `ids`, channels of this level and direction, as
    /// the progression they are: the map is affine on every span the
    /// graph hands out (a BMIN span's ids share their parity, so halving
    /// its even step is exact).
    #[inline]
    pub fn of_span(self, ids: PortSpan) -> PortSpan {
        PortSpan {
            first: self.of(ids.first),
            step: ids.step >> self.shift,
            len: ids.len,
        }
    }
}

/// The lanes of a run of output ports on one side of a switch — or the
/// nodes' injection or ejection channels — as the arithmetic progression
/// of ids they are: `first`, `first + step`, …, `len` of them, ascending
/// (the order every candidate enumeration, and through it the engine's
/// RNG stream, depends on). An iterator over the ids; `Copy`, so a
/// caller keeps the span and iterates copies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PortSpan {
    /// The lowest id (meaningless when `len` is 0).
    pub first: ChannelId,
    /// The distance between consecutive ids.
    pub step: u32,
    /// How many ids.
    pub len: u32,
}

impl PortSpan {
    /// The `i`-th id, `None` past the end.
    #[inline]
    pub fn get(self, i: u32) -> Option<ChannelId> {
        (i < self.len).then(|| self.first + i * self.step)
    }
}

impl Iterator for PortSpan {
    type Item = ChannelId;

    #[inline]
    fn next(&mut self) -> Option<ChannelId> {
        let id = self.get(0)?;
        self.first = self.first.wrapping_add(self.step);
        self.len -= 1;
        Some(id)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len as usize, Some(self.len as usize))
    }
}

impl ExactSizeIterator for PortSpan {}

/// A complete static network: switches, channels and terminal attachments.
///
/// Channel descriptors, transmit-order positions and the adjacency the
/// engine walks (output-port lanes, per-node inject/eject channels) are
/// all computed from the wiring — see the module docs.
#[derive(Clone, Debug)]
pub struct NetworkGraph {
    /// The geometry (`k`, `n`).
    pub geometry: Geometry,
    /// Which family this graph belongs to.
    pub kind: NetworkKind,
    /// `k^0 ..= k^n` — and the dilation — as the divisors the wirings'
    /// closed forms take ids and positions apart by (`kpow[1]` is `k`,
    /// `kpow[n]` is `N`).
    pub(crate) kpow: Vec<Divisor>,
    pub(crate) lanes: Divisor,
    /// Switches a stage (`N/k`); switch ids are stage-major, so a
    /// switch's stage and index are its id's quotient and remainder.
    pub(crate) per_stage: Divisor,
    /// Number of channels.
    nch: u32,
    /// Output-port codes per switch: `k` for unidirectional switches,
    /// `2k` for bidirectional ones.
    out_codes: u32,
    /// [`Self::transmit_order`], once somebody has asked for it.
    order: OnceLock<Vec<ChannelId>>,
}

/// The output-port code of a channel originating at `(side, port)` of a
/// switch: unidirectional switches use `0..k` (right-side outputs); on
/// bidirectional switches `0..k` are left-side outputs, `k..2k` right-side.
#[inline]
fn out_code(kind: NetworkKind, k: u32, side: Side, port: u8) -> u32 {
    match (kind.is_bidirectional(), side) {
        (false, _) | (true, Side::Left) => u32::from(port),
        (true, Side::Right) => k + u32::from(port),
    }
}

impl NetworkGraph {
    /// The graph of `kind` over `geometry`, held to its wiring by one
    /// [`Self::walk`] over the channel ids — the validation pass — so an
    /// unsound wiring is refused before anybody routes over it.
    ///
    /// # Panics
    ///
    /// Panics on a geometry outside [`check_limits`], or if the wiring's
    /// descriptors are unsound (see [`Self::validate`]).
    pub(crate) fn new(geometry: Geometry, kind: NetworkKind) -> NetworkGraph {
        let (k, n, nodes) = (geometry.k(), geometry.n(), geometry.nodes());
        let d = u32::from(kind.dilation());
        // Every channel leaves an output port or a node: `N` injections,
        // `(n − 1)·N·d` inter-stage lanes and `N` ejections, or `N` links
        // a level each way on the BMIN.
        let nch = match kind {
            NetworkKind::Unidir { .. } => u64::from(nodes) * (2 + u64::from(n - 1) * u64::from(d)),
            NetworkKind::Bmin => 2 * u64::from(n) * u64::from(nodes),
        };
        let net = NetworkGraph {
            geometry,
            kind,
            kpow: (0..=n).map(|e| Divisor::new(geometry.kpow(e))).collect(),
            lanes: Divisor::new(d),
            per_stage: Divisor::new(nodes / k),
            nch: u32::try_from(nch).expect("channel ids are u32: outside check_limits"),
            out_codes: if kind.is_bidirectional() { 2 * k } else { k },
            order: OnceLock::new(),
        };
        net.walk(|c| net.channel(c)).expect("the wiring's descriptors are unsound");
        net
    }

    /// The one pass that construction and [`Self::validate`] both are:
    /// visit every channel id in order, check its descriptor (endpoints
    /// in range, no switch input fed twice) and that the id sits where
    /// the closed forms put it — its lane's slot in its output port's
    /// [`PortSpan`] or its node's injection slot, and its node's ejection
    /// slot. On the way each level's [`LevelPositions`] (resolved at the
    /// first id of its rank) are held to the transmit order's definition:
    /// ids by `topo_rank`, equal ranks in id order — a stable counting
    /// sort's next slot.
    ///
    /// Distinct channels match distinct slots, and the spans hold exactly
    /// as many slots (`nch − N` port lanes, `N` injections, `N`
    /// ejections) as there are channels to fill them, so a pass without a
    /// refusal proves every span exact.
    fn walk(&self, channel: impl Fn(ChannelId) -> ChannelDesc) -> Result<(), String> {
        let (k, n, nodes) = (self.geometry.k(), self.geometry.n(), self.geometry.nodes());
        let (nsw, codes, lanes) =
            (self.num_switches(), self.out_codes as usize, self.lanes.get() as usize);
        // Where each rank's run of the order starts: a unidirectional
        // rank `r` is level `n − r`, single-lane at both ends; the BMIN
        // has `2n` ranks of `N`.
        let rank_size = |r: u32| match self.kind {
            NetworkKind::Unidir { .. } if r != 0 && r != n => nodes * self.lanes.get(),
            _ => nodes,
        };
        let ranks = if self.kind.is_bidirectional() { 2 * n } else { n + 1 };
        let mut runs: Vec<(u32, u32, Option<LevelPositions>)> = (0..ranks)
            .scan(0, |end, r| {
                let start = std::mem::replace(end, *end + rank_size(r));
                Some((start, *end, None))
            })
            .collect();
        let mut fed = vec![false; nsw * codes * lanes];
        let mut ejections = 0;
        let in_range = |end| match end {
            Endpoint::Node(nd) => nd < nodes,
            Endpoint::Switch { sw, port, .. } => (sw as usize) < nsw && u32::from(port) < k,
        };
        for id in 0..self.nch {
            let ch = channel(id);
            if !(in_range(ch.src) && in_range(ch.dst)) {
                return Err(format!("channel {id}: an end of {ch:?} is out of range"));
            }
            let lane = u32::from(ch.lane);
            match ch.dst {
                Endpoint::Switch { sw, side, port } => {
                    let code = out_code(self.kind, k, side, port) as usize;
                    let input = (sw as usize * codes + code) * lanes + lane as usize;
                    if lane as usize >= lanes || std::mem::replace(&mut fed[input], true) {
                        return Err(format!("channel {id}: switch {sw} input already fed"));
                    }
                }
                Endpoint::Node(nd) => {
                    ejections += 1;
                    if self.eject(nd) != id {
                        return Err(format!("node {nd}: channel {id} is not its one ejection"));
                    }
                }
            }
            match ch.src {
                Endpoint::Switch { sw, side, port } => {
                    let code = out_code(self.kind, k, side, port);
                    if self.out_port(sw, code).get(lane) != Some(id) {
                        return Err(format!(
                            "switch {sw}: channel {id} is not lane {lane} of port code {code}"
                        ));
                    }
                }
                Endpoint::Node(nd) => {
                    if self.inject(nd) != id {
                        return Err(format!("node {nd}: channel {id} is not its one injection"));
                    }
                }
            }
            let rank = ch.topo_rank;
            let run = runs.get_mut(usize::from(rank)).filter(|(next, end, _)| next < end);
            if run.is_none_or(|(next, _, at)| {
                let at = at.get_or_insert_with(|| self.positions_at(ch.level.into(), ch.dir));
                std::mem::replace(next, *next + 1) != at.of(id)
            }) {
                return Err(format!("channel {id}: transmit order is not ids by rank {rank}"));
            }
        }
        // The other sections are as long as the ids offered to them.
        if ejections != nodes {
            return Err(format!("{ejections} ejection channels for {nodes} nodes"));
        }
        Ok(())
    }

    /// Channel descriptor by id, computed from the wiring.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a channel of this graph.
    #[inline]
    pub fn channel(&self, c: ChannelId) -> ChannelDesc {
        assert!(c < self.nch, "channel {c} out of range");
        match self.kind {
            NetworkKind::Unidir { wiring, .. } => unidir::channel(self, wiring, c),
            NetworkKind::Bmin => bmin::channel(self, c),
        }
    }

    /// The switch and side channel `c` arrives at, `None` at a node —
    /// what a routing decision reads of [`Self::channel`]`(c).dst`,
    /// without computing the rest or folding the switch into an id.
    /// Panics as [`Self::channel`] does.
    #[inline]
    pub fn head(&self, c: ChannelId) -> Option<(SwitchDesc, Side)> {
        assert!(c < self.nch, "channel {c} out of range");
        let end = match self.kind {
            NetworkKind::Unidir { wiring, .. } => unidir::head(self, wiring, c),
            NetworkKind::Bmin => bmin::head(self, c),
        };
        match end {
            End::Node(_) => None,
            End::Port(sw, side, _) => Some((sw, side)),
        }
    }

    /// The wirings' [`End`] as the [`Endpoint`] the API speaks. The
    /// narrowing is checked: an `as u8` would wrap a radix past 256 into
    /// a different, valid-looking wiring.
    #[inline]
    pub(crate) fn endpoint(&self, end: End) -> Endpoint {
        match end {
            End::Node(a) => Endpoint::Node(a),
            End::Port(SwitchDesc { stage, index }, side, port) => Endpoint::Switch {
                sw: u32::from(stage) * self.per_stage.get() + index,
                side,
                port: byte(port),
            },
        }
    }

    /// Every channel descriptor, in [`ChannelId`] order.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = ChannelDesc> + '_ {
        (0..self.nch).map(|c| self.channel(c))
    }

    /// Switch descriptor by id.
    #[inline]
    pub fn switch(&self, s: SwitchId) -> SwitchDesc {
        let (stage, index) = self.per_stage.div_rem(s);
        SwitchDesc {
            stage: byte(stage),
            index,
        }
    }

    /// Number of channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.nch as usize
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.geometry.n() as usize * self.per_stage.get() as usize
    }

    /// `k^0 ..= k^n` as divisors: `powers()[j].div_rem(a)` takes address
    /// `a` apart at digit `j`.
    #[inline]
    pub fn powers(&self) -> &[Divisor] {
        &self.kpow
    }

    /// Output-port codes per switch: `k` for unidirectional switches,
    /// `2k` for bidirectional ones (see the module docs for the coding).
    #[inline]
    pub fn out_port_codes(&self) -> u32 {
        self.out_codes
    }

    /// The lane channels of switch `s`'s output port `code`, in ascending
    /// channel-id (= lane) order.
    #[inline]
    pub fn out_port(&self, s: SwitchId, code: u32) -> PortSpan {
        self.out_port_span(s, code, code + 1)
    }

    /// The lanes of output ports `code_lo..code_hi` of switch `s`, port
    /// by port — one progression, so a multi-port candidate fan-out (the
    /// BMIN's forward ports `k..2k`) is one span. The codes must lie on
    /// one side of a bidirectional switch (checked in debug builds).
    #[inline]
    pub fn out_port_span(&self, s: SwitchId, code_lo: u32, code_hi: u32) -> PortSpan {
        self.out_span(self.switch(s), code_lo, code_hi)
    }

    /// [`Self::out_port_span`] of the switch `sw` describes — what a
    /// routing decision has at hand ([`Self::head`]).
    #[inline]
    pub fn out_span(&self, sw: SwitchDesc, code_lo: u32, code_hi: u32) -> PortSpan {
        let k = self.geometry.k();
        debug_assert!(
            code_lo <= code_hi && code_hi <= self.out_codes && (code_hi <= k || code_lo >= k),
            "output codes {code_lo}..{code_hi} are not a run on one side"
        );
        match self.kind {
            NetworkKind::Unidir { .. } => unidir::out_span(self, sw, code_lo, code_hi),
            NetworkKind::Bmin => bmin::out_span(self, sw, code_lo, code_hi),
        }
    }

    /// Every channel originating at switch `s`, across all output ports
    /// in code order: the left side's span, then the right side's (empty
    /// on a unidirectional switch).
    #[inline]
    pub fn out_all(&self, s: SwitchId) -> std::iter::Chain<PortSpan, PortSpan> {
        let (k, sw) = (self.geometry.k(), self.switch(s));
        self.out_span(sw, 0, k).chain(self.out_span(sw, k, self.out_codes))
    }

    /// The injection channel (node → network) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    #[inline]
    pub fn inject(&self, node: NodeId) -> ChannelId {
        self.injects().get(node).unwrap_or_else(|| panic!("node {node} out of range"))
    }

    /// The ejection channel (network → node) of `node`. Panics as
    /// [`Self::inject`] does.
    #[inline]
    pub fn eject(&self, node: NodeId) -> ChannelId {
        self.ejects().get(node).unwrap_or_else(|| panic!("node {node} out of range"))
    }

    /// Per-node injection channels, in [`NodeId`] order: node `a`'s at
    /// `a` (unidirectional — level 0) or `2a` (BMIN — the up half of
    /// level-0 link `a`).
    #[inline]
    pub fn injects(&self) -> PortSpan {
        let nodes = self.kpow[self.kpow.len() - 1].get();
        let step = if self.kind.is_bidirectional() { 2 } else { 1 };
        PortSpan { first: 0, step, len: nodes }
    }

    /// Per-node ejection channels, in [`NodeId`] order: the last level,
    /// in node order because `C_n` is the identity for every wiring (the
    /// unidirectional networks), or the down half of level-0 link `a`
    /// (BMIN).
    #[inline]
    pub fn ejects(&self) -> PortSpan {
        let nodes = self.kpow[self.kpow.len() - 1].get();
        match self.kind {
            NetworkKind::Unidir { .. } => PortSpan { first: self.nch - nodes, step: 1, len: nodes },
            NetworkKind::Bmin => PortSpan { first: 1, step: 2, len: nodes },
        }
    }

    /// Where the channels of `level` going `dir` sit in the transmit order.
    #[inline]
    fn positions_at(&self, level: u32, dir: Direction) -> LevelPositions {
        match self.kind {
            NetworkKind::Unidir { .. } => unidir::level_positions(self, level),
            NetworkKind::Bmin => bmin::level_positions(self, level, dir),
        }
    }

    /// The id → position map of `c`'s level and direction. The candidates of
    /// one routing decision share it: resolve once, shift and add per channel.
    #[inline]
    pub fn level_positions(&self, c: ChannelId) -> LevelPositions {
        debug_assert!(c < self.nch, "channel {c} out of range");
        let (level, dir) = match self.kind {
            NetworkKind::Unidir { .. } => (unidir::locate(self, c).0, Direction::Forward),
            NetworkKind::Bmin => bmin::level_of(self, c),
        };
        self.positions_at(level, dir)
    }

    /// Where channel `c` sits in the transmit order — channels by
    /// `topo_rank` ascending, equal ranks by id: the order the engine
    /// transmits in so that a worm advances as a unit ([`ChannelDesc::topo_rank`]).
    /// Rank 0 is the ejection channels: `c` ejects iff its position is below `N`.
    #[inline]
    pub fn position(&self, c: ChannelId) -> u32 {
        self.level_positions(c).of(c)
    }

    /// The channel at position `pos`: the inverse of [`Self::position`].
    #[inline]
    pub fn channel_at(&self, pos: u32) -> ChannelId {
        debug_assert!(pos < self.nch, "position {pos} out of range");
        match self.kind {
            // Levels trade places pairwise: the map is its own inverse.
            NetworkKind::Unidir { .. } => self.position(pos),
            NetworkKind::Bmin => bmin::channel_at(self, pos),
        }
    }

    /// The transmit order as a list, built on first use and kept (4 B a
    /// channel): for masked route tables, the reference engine and tests.
    pub fn transmit_order(&self) -> &[ChannelId] {
        self.order.get_or_init(|| (0..self.nch).map(|pos| self.channel_at(pos)).collect())
    }

    /// Approximate resident size of the graph in bytes (the divisors,
    /// the transmit order once asked for) — a memory-accounting metric
    /// for the benchmark and footprint tests.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(&self.kpow[..])
            + self.order.get().map_or(0, Vec::len) * 4
    }

    /// Sanity-check structural invariants; used by tests (construction
    /// makes the same pass, see [`Self::walk`]).
    ///
    /// Verifies: endpoint switch/node indices are in range; no two
    /// channels terminate at the same switch input (the per-switch input
    /// lists, derived here in one pass — validation is their only reader);
    /// every switch's output-port spans hold exactly the channels that
    /// originate there, at the claimed port code, in lane order; every
    /// node has exactly one injection and one ejection channel, the ones
    /// [`Self::inject`] and [`Self::eject`] name; [`Self::position`] is
    /// the rank-sorted permutation of all channels.
    pub fn validate(&self) -> Result<(), String> {
        self.walk(|c| self.channel(c))
    }
}

#[cfg(test)]
impl NetworkGraph {
    /// The channels of one `(level, dir)`, for the structural tests.
    pub(crate) fn channels_at_level(&self, level: u8, dir: Direction) -> Vec<ChannelId> {
        (0..self.nch)
            .filter(|&c| {
                let ch = self.channel(c);
                ch.level == level && ch.dir == dir
            })
            .collect()
    }
}

#[cfg(test)]
impl NetworkKind {
    /// The unidirectional wiring, if this is not a BMIN.
    pub fn wiring(&self) -> Option<crate::unidir::UnidirKind> {
        match self {
            NetworkKind::Unidir { wiring, .. } => Some(*wiring),
            NetworkKind::Bmin => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_accessors() {
        let e = Endpoint::Node(3);
        assert_eq!(e.node(), Some(3));
        assert_eq!(e.switch(), None);
        let s = Endpoint::Switch {
            sw: 7,
            side: Side::Left,
            port: 1,
        };
        assert_eq!(s.switch(), Some(7));
        assert_eq!(s.node(), None);
    }

    #[test]
    fn kind_dilation() {
        use crate::unidir::UnidirKind;
        let cube2 = NetworkKind::Unidir {
            wiring: UnidirKind::Cube,
            dilation: 2,
        };
        assert_eq!(cube2.dilation(), 2);
        assert_eq!(cube2.wiring(), Some(UnidirKind::Cube));
        assert_eq!(NetworkKind::Bmin.dilation(), 1);
        assert_eq!(NetworkKind::Bmin.wiring(), None);
        assert!(NetworkKind::Bmin.is_bidirectional());
        let bf1 = NetworkKind::Unidir {
            wiring: UnidirKind::Butterfly,
            dilation: 1,
        };
        assert!(!bf1.is_bidirectional());
    }

    #[test]
    fn assembled_lists_are_id_sorted_and_exhaustive() {
        use crate::unidir::{build_unidir, UnidirKind};
        let net = build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 2);
        let mut seen_out = 0usize;
        for s in 0..net.num_switches() as SwitchId {
            for code in 0..net.out_port_codes() {
                let lanes: Vec<ChannelId> = net.out_port(s, code).collect();
                assert!(lanes.windows(2).all(|w| w[0] < w[1]));
                seen_out += lanes.len();
            }
            assert_eq!(net.out_all(s).count(), net.out_port_span(s, 0, net.out_port_codes()).len());
        }
        // Every channel leaving a switch appears in exactly one port list.
        let switch_src = net.channels().filter(|c| c.src.switch().is_some()).count();
        assert_eq!(seen_out, switch_src);
    }

    #[test]
    fn validate_rejects_a_doubly_fed_switch_input() {
        use crate::unidir::{build_unidir, UnidirKind};
        let net = build_unidir(Geometry::new(2, 2), UnidirKind::Cube, 1);
        assert_eq!(net.validate(), Ok(()));
        let feeders: Vec<ChannelId> = (0..net.num_channels() as ChannelId)
            .filter(|&c| net.channel(c).dst.switch().is_some())
            .take(2)
            .collect();
        let doubled = ChannelDesc {
            dst: net.channel(feeders[0]).dst,
            ..net.channel(feeders[1])
        };
        let corrupted = |c| if c == feeders[1] { doubled } else { net.channel(c) };
        let err = net.walk(corrupted).unwrap_err();
        assert!(err.contains("input already fed"), "{err}");
    }

    /// The walk checks each id against its computed slot: two lanes of a
    /// dilated port that claim each other's lane index are refused.
    #[test]
    fn validate_rejects_an_id_outside_its_computed_slot() {
        use crate::unidir::{build_unidir, UnidirKind};
        let net = build_unidir(Geometry::new(2, 3), UnidirKind::Cube, 2);
        let PortSpan { first, .. } = net.out_port(0, 0);
        let swapped = |c| {
            let ch = net.channel(c);
            match c.wrapping_sub(first) {
                0 | 1 => ChannelDesc { lane: 1 - ch.lane, ..ch },
                _ => ch,
            }
        };
        let err = net.walk(swapped).unwrap_err();
        assert!(err.contains("is not lane 1 of port code 0"), "{err}");
    }

    #[test]
    fn check_limits_names_the_field_that_overflows() {
        for (k, n) in [(2, 16), (4, 7), (256, 2), (256, 1), (32, 2)] {
            assert_eq!(check_limits(Geometry::new(k, n)), Ok(Geometry::new(k, n)));
        }
        let refused = |k, n| check_limits(Geometry::new(k, n)).unwrap_err();
        assert!(refused(300, 1).starts_with("k = 300: "));
        assert!(refused(257, 2).contains("at most 256"));
        assert!(refused(216, 4).contains("nodes, the engine's lane words end at 2^31"));
        assert!(refused(4, 12).contains("switches, at most 2^22"));
    }

    #[test]
    fn switch_index_is_derived_from_the_stage_byte() {
        use crate::bmin::build_bmin;
        let g = Geometry::new(3, 3);
        let net = build_bmin(g);
        let per_stage = g.nodes() / g.k();
        for s in 0..net.num_switches() as SwitchId {
            let sw = net.switch(s);
            assert_eq!(
                (u32::from(sw.stage), sw.index),
                (s / per_stage, s % per_stage)
            );
        }
    }

    #[test]
    fn transmit_order_is_memoized_slice() {
        use crate::bmin::build_bmin;
        let net = build_bmin(Geometry::new(2, 3));
        let a = net.transmit_order().as_ptr();
        let b = net.transmit_order().as_ptr();
        assert_eq!(a, b, "memoized order must not be rebuilt per call");
        assert_eq!(net.transmit_order().len(), net.num_channels());
    }
}
