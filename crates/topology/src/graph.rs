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
//! The graph is stored CSR-style: besides the flat channel table, a single
//! shared id arena holds every per-switch output-port lane list, the
//! per-node injection and ejection channels, and the memoized transmit
//! order, with a `starts`-style offset table indexing into it. No
//! per-switch (or other per-entity) `Vec`s exist, so a
//! multi-thousand-switch network costs a handful of large allocations
//! instead of `O(switches × ports)` small ones. Builders create the
//! channel table and hand it to [`NetworkGraph::assemble`], which derives
//! all adjacency in two counted passes. Per-switch *input* lists are not
//! stored: nothing routes by them, and [`NetworkGraph::validate`] derives
//! what it checks of them from the channel table.
//!
//! A channel is stored as a 12-byte [`PackedChannel`]:
//!
//! | field       | bits | holds                                            |
//! |-------------|------|--------------------------------------------------|
//! | `src`,`dst` | 32   | bit 31 set: node id (31 bits); else `switch:22 \| port:8 \| side:1` |
//! | `topo_rank` | 16   | as [`ChannelDesc::topo_rank`]                    |
//! | `level_dir` | 8    | `level` in the low seven bits, bit 7 = backward  |
//! | `lane`      | 8    | as [`ChannelDesc::lane`]                         |
//!
//! [`ChannelDesc`] and [`Endpoint`] are the *view*: [`NetworkGraph::channel`]
//! decodes one by value, and builders, [`NetworkGraph::validate`] and every
//! reader go through that one codec — there is no second table. Switches
//! cost one stage byte each; both builders number them stage-major, so a
//! switch's index within its stage is `id − stage · N/k`. What the fields
//! can hold — `k ≤ 256`, under 2²² switches, under 2³¹ nodes, levels
//! below 128 — is stated once, by [`check_limits`], which every entry
//! point taking a geometry from outside calls before anything is
//! allocated; [`ChannelDesc::pack`] refuses the same ranges as the
//! backstop. All in, a channel costs ≈ 24 bytes (12 the record, 4 its
//! port offset, ≈ 8 its slots in the arena's port and order sections).

use crate::address::{Geometry, MAX_DIGITS};

/// Index of a node (terminal). Equals the node's address value.
pub type NodeId = u32;
/// Index of a switch within the graph's switch table.
pub type SwitchId = u32;
/// Index of a channel within [`NetworkGraph::channels`].
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

    /// Port `port` on `side` of switch `sw`, from the builders' `u32`
    /// position arithmetic. The narrowing is checked: an `as u8` would
    /// wrap a radix past 256 into a different, valid-looking wiring.
    #[inline]
    pub fn port(sw: SwitchId, side: Side, port: u32) -> Endpoint {
        Endpoint::Switch {
            sw,
            side,
            port: byte(port),
        }
    }
}

/// The builders' narrowing of a port, stage or level — all below 256
/// for any geometry [`check_limits`] admits.
#[inline]
pub(crate) fn byte(v: u32) -> u8 {
    u8::try_from(v).expect("port, stage or level past a byte: geometry outside graph::check_limits")
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

/// Bit 31 of a packed endpoint: the low 31 bits are a node id.
const NODE_BIT: u32 = 1 << 31;
/// Switch ids a packed endpoint holds: 22 bits above `port:8 | side:1`.
const MAX_SWITCHES: u32 = 1 << 22;
/// Bit 7 of `level_dir`: the channel runs backward.
const BACKWARD_BIT: u8 = 1 << 7;
// Every level a geometry can have fits beside the direction bit.
const _: () = assert!(MAX_DIGITS < BACKWARD_BIT as u32);

/// A channel as the graph stores it, 12 bytes (layout in the module
/// docs). Made by [`ChannelDesc::pack`], read by [`PackedChannel::decode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PackedChannel {
    src: u32,
    dst: u32,
    topo_rank: u16,
    level_dir: u8,
    lane: u8,
}

/// What a [`PackedChannel`] can hold, as a condition on the geometry:
/// radix at most 256 (ports are a byte), under 2³¹ nodes and under 2²²
/// switches (`n · N/k`, either builder). Returns `g` so callers chain it
/// after [`Geometry::try_new`].
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
    } else if nodes >= NODE_BIT {
        Err(format!("k = {k}, n = {n}: {nodes} nodes, ids end at 2^31"))
    } else if sw >= u64::from(MAX_SWITCHES) {
        Err(format!("k = {k}, n = {n}: {sw} switches, ids end at 2^22"))
    } else {
        Ok(g)
    }
}

impl ChannelDesc {
    /// Encode for storage, or `None` for what the record's fields cannot
    /// hold: a switch id of 2²² or more, a node id of 2³¹ or more, a
    /// level of 128 or more. (`None`, not a message: formatting `self`
    /// on the cold path pins the descriptor in memory on the hot one and
    /// tripled the builders' push loop.)
    #[inline]
    pub fn pack(self) -> Option<PackedChannel> {
        // (fits, packed) of one endpoint.
        let end = |e: Endpoint| match e {
            Endpoint::Node(n) => (n < NODE_BIT, NODE_BIT | n),
            Endpoint::Switch { sw, side, port } => (
                sw < MAX_SWITCHES,
                sw << 9 | u32::from(port) << 1 | u32::from(side == Side::Right),
            ),
        };
        let ((src_fits, src), (dst_fits, dst)) = (end(self.src), end(self.dst));
        let backward = self.dir == Direction::Backward;
        (src_fits && dst_fits && self.level < BACKWARD_BIT).then_some(PackedChannel {
            src,
            dst,
            topo_rank: self.topo_rank,
            level_dir: self.level | if backward { BACKWARD_BIT } else { 0 },
            lane: self.lane,
        })
    }
}

impl PackedChannel {
    /// [`ChannelDesc::pack`] for the builders: a refusal there is a
    /// geometry that [`check_limits`] should have stopped at the door.
    #[inline]
    pub(crate) fn of(ch: ChannelDesc) -> PackedChannel {
        ch.pack().expect("geometry within graph::check_limits")
    }

    /// The channel this record stores.
    #[inline]
    pub fn decode(self) -> ChannelDesc {
        let end = |e: u32| match e & NODE_BIT {
            0 => Endpoint::Switch {
                sw: e >> 9,
                side: if e & 1 == 0 { Side::Left } else { Side::Right },
                port: (e >> 1) as u8, // exactly the `port:8` bits
            },
            _ => Endpoint::Node(e & !NODE_BIT),
        };
        let dir = match self.level_dir & BACKWARD_BIT {
            0 => Direction::Forward,
            _ => Direction::Backward,
        };
        ChannelDesc {
            src: end(self.src),
            dst: end(self.dst),
            level: self.level_dir & !BACKWARD_BIT,
            lane: self.lane,
            dir,
            topo_rank: self.topo_rank,
        }
    }
}

/// A switch (one crossbar) in the network. Pure metadata — the
/// output-port adjacency lives in the graph's shared CSR arena, reached
/// through [`NetworkGraph::out_port`].
#[derive(Clone, Copy, Debug)]
pub struct SwitchDesc {
    /// Stage index `G_stage`.
    pub stage: u8,
    /// Index of the switch within its stage.
    pub index: u32,
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

    /// The unidirectional wiring, if this is not a BMIN.
    pub fn wiring(&self) -> Option<crate::unidir::UnidirKind> {
        match self {
            NetworkKind::Unidir { wiring, .. } => Some(*wiring),
            NetworkKind::Bmin => None,
        }
    }
}

/// A complete static network: switches, channels and terminal attachments.
///
/// All adjacency (output-port lane lists, per-node inject/eject channels,
/// the transmit order) is stored in one shared id arena with a CSR offset
/// table — see the module docs.
#[derive(Clone, Debug)]
pub struct NetworkGraph {
    /// The geometry (`k`, `n`).
    pub geometry: Geometry,
    /// Which family this graph belongs to.
    pub kind: NetworkKind,
    /// All channels, indexed by [`ChannelId`].
    channels: Vec<PackedChannel>,
    /// Each switch's stage, indexed by [`SwitchId`]; ids are stage-major
    /// with `per_stage` (`N/k`) switches a stage.
    stages: Vec<u8>,
    per_stage: u32,
    /// Output-port codes per switch: `k` for unidirectional switches,
    /// `2k` for bidirectional ones.
    out_codes: u32,
    /// `ids[port_starts[s * out_codes + c] .. port_starts[s * out_codes + c + 1]]`
    /// are the lane channels of switch `s`'s output port `c`.
    port_starts: Vec<u32>,
    /// The shared id arena: output-port lanes, then per-node inject and
    /// eject channels, then the transmit order.
    ids: Vec<ChannelId>,
    /// Offset of the per-node injection section within `ids`.
    inject_at: u32,
    /// Offset of the per-node ejection section within `ids`.
    eject_at: u32,
    /// Offset of the memoized transmit order within `ids`.
    order_at: u32,
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
    /// Assemble a graph from its channel table: derive every switch's
    /// output-port lane lists, the inject/eject sections, and the
    /// transmit order, in two counted passes into the shared CSR arena
    /// (no per-switch allocations).
    ///
    /// Within each output-port list, channels appear in ascending
    /// [`ChannelId`] order — the order the builders create them in, which
    /// every routing-candidate enumeration (and therefore the engine's
    /// RNG stream) depends on.
    ///
    /// The switch table is not an input: both network families have `n`
    /// stages of `N/k` switches, numbered stage-major.
    ///
    /// # Panics
    ///
    /// Panics if `inject`/`eject` don't have one entry per node, or a
    /// channel references a switch out of range. Structural soundness
    /// beyond that is [`NetworkGraph::validate`]'s job.
    pub fn assemble(
        geometry: Geometry,
        kind: NetworkKind,
        channels: Vec<PackedChannel>,
        inject: Vec<ChannelId>,
        eject: Vec<ChannelId>,
    ) -> NetworkGraph {
        let nodes = geometry.nodes() as usize;
        assert_eq!(inject.len(), nodes, "one injection channel per node");
        assert_eq!(eject.len(), nodes, "one ejection channel per node");
        let k = geometry.k();
        let per_stage = geometry.nodes() / k;
        let stages: Vec<u8> = (0..geometry.n())
            .flat_map(|stage| std::iter::repeat_n(byte(stage), per_stage as usize))
            .collect();
        let nsw = stages.len();
        let nch = channels.len();
        let out_codes = if kind.is_bidirectional() { 2 * k } else { k };
        let nports = nsw * out_codes as usize;

        // Pass 1: count lanes per (switch, code) and channels per
        // `topo_rank` (a table as long as the largest rank seen: `2n`).
        let mut port_starts = vec![0u32; nports + 1];
        let mut rank_starts = vec![0u32; 2];
        for ch in channels.iter().map(|ch| ch.decode()) {
            if let Endpoint::Switch { sw, .. } = ch.dst {
                assert!((sw as usize) < nsw, "channel dst switch out of range");
            }
            if let Endpoint::Switch { sw, side, port } = ch.src {
                assert!((sw as usize) < nsw, "channel src switch out of range");
                let code = out_code(kind, k, side, port);
                port_starts[sw as usize * out_codes as usize + code as usize + 1] += 1;
            }
            let rank = usize::from(ch.topo_rank);
            if rank + 2 > rank_starts.len() {
                rank_starts.resize(rank + 2, 0);
            }
            rank_starts[rank + 1] += 1;
        }
        for starts in [&mut port_starts, &mut rank_starts] {
            for i in 1..starts.len() {
                starts[i] += starts[i - 1];
            }
        }
        let inject_at = port_starts[nports];
        let eject_at = inject_at + nodes as u32;
        let order_at = eject_at + nodes as u32;
        let total = order_at as usize + nch;

        // Pass 2: fill the arena, scanning channels in id order so every
        // list comes out id-sorted — the memoized transmit order too: ids
        // by `topo_rank`, equal ranks in id order (a stable counting sort).
        let mut ids = vec![0 as ChannelId; total];
        let mut pcur = port_starts.clone();
        for (id, ch) in channels.iter().map(|ch| ch.decode()).enumerate() {
            if let Endpoint::Switch { sw, side, port } = ch.src {
                let code = out_code(kind, k, side, port);
                let cur = &mut pcur[sw as usize * out_codes as usize + code as usize];
                ids[*cur as usize] = id as ChannelId;
                *cur += 1;
            }
            let cur = &mut rank_starts[usize::from(ch.topo_rank)];
            ids[(order_at + *cur) as usize] = id as ChannelId;
            *cur += 1;
        }
        ids[inject_at as usize..eject_at as usize].copy_from_slice(&inject);
        ids[eject_at as usize..order_at as usize].copy_from_slice(&eject);

        NetworkGraph {
            geometry,
            kind,
            channels,
            stages,
            per_stage,
            out_codes,
            port_starts,
            ids,
            inject_at,
            eject_at,
            order_at,
        }
    }

    /// Channel descriptor by id, decoded from its stored record.
    #[inline]
    pub fn channel(&self, c: ChannelId) -> ChannelDesc {
        self.channels[c as usize].decode()
    }

    /// Every channel descriptor, in [`ChannelId`] order.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = ChannelDesc> + '_ {
        self.channels.iter().map(|ch| ch.decode())
    }

    /// Switch descriptor by id.
    #[inline]
    pub fn switch(&self, s: SwitchId) -> SwitchDesc {
        let stage = self.stages[s as usize];
        SwitchDesc {
            stage,
            index: s - u32::from(stage) * self.per_stage,
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.stages.len()
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
    pub fn out_port(&self, s: SwitchId, code: u32) -> &[ChannelId] {
        self.out_port_span(s, code, code + 1)
    }

    /// The concatenated lane lists of output ports `code_lo..code_hi` of
    /// switch `s` — contiguous in the arena, so a multi-port candidate
    /// fan-out (e.g. the BMIN's forward ports `k..2k`) is one slice.
    #[inline]
    pub fn out_port_span(&self, s: SwitchId, code_lo: u32, code_hi: u32) -> &[ChannelId] {
        let (lo, hi) = self.out_port_range(s, code_lo, code_hi);
        &self.ids[lo as usize..hi as usize]
    }

    /// [`Self::out_port_span`] as `(lo, hi)` bounds into [`Self::arena`],
    /// for callers that cache the bounds and slice later (the route
    /// table's candidate ranges).
    #[inline]
    pub fn out_port_range(&self, s: SwitchId, code_lo: u32, code_hi: u32) -> (u32, u32) {
        debug_assert!(code_lo <= code_hi && code_hi <= self.out_codes);
        let base = s as usize * self.out_codes as usize;
        (
            self.port_starts[base + code_lo as usize],
            self.port_starts[base + code_hi as usize],
        )
    }

    /// The whole shared id arena [`Self::out_port_range`] indexes.
    #[inline]
    pub fn arena(&self) -> &[ChannelId] {
        &self.ids
    }

    /// Every channel originating at switch `s`, across all output ports.
    #[inline]
    pub fn out_all(&self, s: SwitchId) -> &[ChannelId] {
        self.out_port_span(s, 0, self.out_codes)
    }

    /// The injection channel (node → network) of `node`.
    #[inline]
    pub fn inject(&self, node: NodeId) -> ChannelId {
        self.ids[self.inject_at as usize + node as usize]
    }

    /// The ejection channel (network → node) of `node`.
    #[inline]
    pub fn eject(&self, node: NodeId) -> ChannelId {
        self.ids[self.eject_at as usize + node as usize]
    }

    /// Per-node injection channels, indexed by [`NodeId`].
    #[inline]
    pub fn injects(&self) -> &[ChannelId] {
        &self.ids[self.inject_at as usize..self.eject_at as usize]
    }

    /// Per-node ejection channels, indexed by [`NodeId`].
    #[inline]
    pub fn ejects(&self) -> &[ChannelId] {
        &self.ids[self.eject_at as usize..self.order_at as usize]
    }

    /// Channel ids sorted by `topo_rank` ascending — the order in which the
    /// simulation engine performs per-cycle transmissions so that a worm
    /// advances as a unit (see [`ChannelDesc::topo_rank`]). Memoized at
    /// assembly; this is a slice view into the shared arena, not a fresh
    /// allocation.
    #[inline]
    pub fn transmit_order(&self) -> &[ChannelId] {
        &self.ids[self.order_at as usize..]
    }

    /// Approximate resident size of the graph in bytes (channel table,
    /// stage bytes, CSR offset table and the shared id arena) — a
    /// memory-accounting metric for the benchmark and the footprint tests.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.channels.len() * std::mem::size_of::<PackedChannel>()
            + self.stages.len()
            + self.port_starts.len() * 4
            + self.ids.len() * 4
    }

    /// Sanity-check structural invariants; used by builders and tests.
    ///
    /// Verifies: endpoint switch/node indices are in range; no two
    /// channels terminate at the same switch input (the per-switch input
    /// lists, derived here in one pass — validation is their only reader);
    /// every channel in a switch's output-port lists actually originates
    /// there (and at the claimed port code); every node has exactly one
    /// injection and one ejection channel; the transmit order is a
    /// rank-sorted permutation of all channels.
    pub fn validate(&self) -> Result<(), String> {
        let n_nodes = self.geometry.nodes();
        let lanes = usize::from(self.kind.dilation());
        let mut fed = vec![false; self.stages.len() * self.out_codes as usize * lanes];
        for (i, ch) in self.channels().enumerate() {
            for ep in [ch.src, ch.dst] {
                match ep {
                    Endpoint::Node(nd) if nd >= n_nodes => {
                        return Err(format!("channel {i}: node {nd} out of range"));
                    }
                    Endpoint::Switch { sw, port, .. } => {
                        if sw as usize >= self.stages.len() {
                            return Err(format!("channel {i}: switch {sw} out of range"));
                        }
                        if u32::from(port) >= self.geometry.k() {
                            return Err(format!("channel {i}: port {port} out of range"));
                        }
                    }
                    _ => {}
                }
            }
            if let Endpoint::Switch { sw, side, port } = ch.dst {
                let code = out_code(self.kind, self.geometry.k(), side, port);
                let input = (sw * self.out_codes + code) as usize * lanes + usize::from(ch.lane);
                if usize::from(ch.lane) >= lanes || std::mem::replace(&mut fed[input], true) {
                    return Err(format!("channel {i}: switch {sw} input already fed"));
                }
            }
        }
        for sid in 0..self.stages.len() {
            for code in 0..self.out_codes {
                for &c in self.out_port(sid as SwitchId, code) {
                    let src = self.channels.get(c as usize).map(|ch| ch.decode().src);
                    let originates_here = match src {
                        Some(Endpoint::Switch { sw: s2, side, port }) if s2 as usize == sid => {
                            out_code(self.kind, self.geometry.k(), side, port) == code
                        }
                        _ => false,
                    };
                    if !originates_here {
                        return Err(format!(
                            "switch {sid}: output {c} does not originate at port code {code}"
                        ));
                    }
                }
            }
        }
        for nd in 0..n_nodes {
            let inj = self.channel(self.inject(nd));
            if inj.src != Endpoint::Node(nd) {
                return Err(format!("node {nd}: inject channel has wrong source"));
            }
            let ej = self.channel(self.eject(nd));
            if ej.dst != Endpoint::Node(nd) {
                return Err(format!("node {nd}: eject channel has wrong destination"));
            }
        }
        let order = self.transmit_order();
        if order.len() != self.channels.len() {
            return Err("transmit order must cover every channel".into());
        }
        let mut seen = vec![false; self.channels.len()];
        let mut prev = 0u16;
        for &c in order {
            let rank = self.channel(c).topo_rank;
            if rank < prev {
                return Err(format!("transmit order not rank-sorted at channel {c}"));
            }
            prev = rank;
            if std::mem::replace(&mut seen[c as usize], true) {
                return Err(format!("transmit order repeats channel {c}"));
            }
        }
        Ok(())
    }

    /// Count channels by `(level, dir)` — used by partition analysis and
    /// structural tests.
    pub fn channels_at_level(&self, level: u8, dir: Direction) -> Vec<ChannelId> {
        (0..self.channels.len() as u32)
            .filter(|&c| {
                let ch = self.channel(c);
                ch.level == level && ch.dir == dir
            })
            .collect()
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
                let lanes = net.out_port(s, code);
                assert!(lanes.windows(2).all(|w| w[0] < w[1]));
                seen_out += lanes.len();
            }
            assert_eq!(net.out_all(s).len(), net.out_port_span(s, 0, net.out_port_codes()).len());
        }
        // Every channel leaving a switch appears in exactly one port list.
        let switch_src = net.channels().filter(|c| c.src.switch().is_some()).count();
        assert_eq!(seen_out, switch_src);
    }

    #[test]
    fn validate_rejects_a_doubly_fed_switch_input() {
        use crate::unidir::{build_unidir, UnidirKind};
        let mut net = build_unidir(Geometry::new(2, 2), UnidirKind::Cube, 1);
        assert_eq!(net.validate(), Ok(()));
        let feeders: Vec<ChannelId> = (0..net.num_channels() as ChannelId)
            .filter(|&c| net.channel(c).dst.switch().is_some())
            .take(2)
            .collect();
        let doubled = ChannelDesc {
            dst: net.channel(feeders[0]).dst,
            ..net.channel(feeders[1])
        };
        net.channels[feeders[1] as usize] = doubled.pack().unwrap();
        assert!(net.validate().unwrap_err().contains("input already fed"));
    }

    #[test]
    fn check_limits_names_the_field_that_overflows() {
        for (k, n) in [(2, 16), (4, 7), (256, 2), (256, 1), (32, 2)] {
            assert_eq!(check_limits(Geometry::new(k, n)), Ok(Geometry::new(k, n)));
        }
        let refused = |k, n| check_limits(Geometry::new(k, n)).unwrap_err();
        assert!(refused(300, 1).starts_with("k = 300: "));
        assert!(refused(257, 2).contains("at most 256"));
        assert!(refused(216, 4).contains("nodes, ids end at 2^31"));
        assert!(refused(4, 12).contains("switches, ids end at 2^22"));
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
