//! Builders for the unidirectional MINs (paper §2, Figs. 4 and 5).
//!
//! An `N = k^n` node unidirectional MIN is
//! `C_0(N) G_0(N/k) C_1(N) … C_{n-1}(N) G_{n-1}(N/k) C_n(N)`:
//! `n` stages of `N/k` crossbar switches separated by connection
//! permutations `C_i`. Two Delta-class wirings are considered:
//!
//! * **cube MIN** (Fig. 4a): `C_0 = σ` (perfect k-shuffle),
//!   `C_i = β_{n-i}` for `1 ≤ i ≤ n` (so `C_n = β_0 =` identity);
//!   routing tag `t_i = d_{n-1-i}`.
//! * **butterfly MIN** (Fig. 4b): `C_i = β_i` with `C_n = β_0`
//!   (so `C_0` and `C_n` are the identity);
//!   routing tag `t_i = d_{i+1}` for `i ≤ n-2` and `t_{n-1} = d_0`.
//!
//! The same builder covers TMINs (`dilation = 1`), DMINs (`dilation = d`,
//! Fig. 5) and VMINs (dilation 1; virtual channels are layered on by the
//! simulator). Following the paper, the node-to-network and
//! network-to-node links always have a single lane ("half of the input
//! channels and half of the output channels to/from the network are not
//! used in order to maintain the one-port communication architecture").

use crate::address::{Geometry, NodeAddr};
use crate::graph::{
    byte, ChannelDesc, ChannelId, Direction, End, LevelPositions, NetworkGraph, NetworkKind,
    PortSpan, Side, SwitchDesc,
};
use crate::permutation::Perm;

/// The Delta-class unidirectional wirings: the paper's two main subjects
/// (cube and butterfly) plus the two the paper's §6 "additional work"
/// mentions (Omega partitions like the cube; baseline like the
/// butterfly).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnidirKind {
    /// Cube interconnection (indirect cube / multistage cube): perfect
    /// shuffle in front, then `β_{n-i}` between stages.
    Cube,
    /// Butterfly interconnection: `β_i` between stages.
    Butterfly,
    /// Omega network (Lawrie): a perfect shuffle before every stage.
    Omega,
    /// Baseline network (Wu & Feng): progressively narrower inverse
    /// shuffles (`σ⁻¹` over the low `n-i+1` digits before stage `i`).
    Baseline,
}

impl UnidirKind {
    /// Connection pattern `C_i` for `0 ≤ i ≤ n`.
    pub fn connection(&self, g: &Geometry, i: u32) -> Perm {
        let n = g.n();
        assert!(i <= n, "connection index {i} out of range (n = {n})");
        match self {
            UnidirKind::Cube => {
                if i == 0 {
                    Perm::PerfectShuffle
                } else {
                    Perm::Butterfly(n - i) // C_n = β_0 = identity
                }
            }
            UnidirKind::Butterfly => {
                if i == n || i == 0 {
                    Perm::Identity // C_0 = C_n = β_0
                } else {
                    Perm::Butterfly(i)
                }
            }
            UnidirKind::Omega => {
                if i == n {
                    Perm::Identity
                } else {
                    Perm::PerfectShuffle
                }
            }
            UnidirKind::Baseline => {
                if i == 0 || i == n {
                    Perm::Identity
                } else {
                    Perm::SubInverseShuffle(n - i + 1)
                }
            }
        }
    }

    /// Routing tag digit `t_i` controlling the switch at stage `G_i` for a
    /// packet headed to `dst` (self-routing property of Delta networks):
    /// digit [`Self::tag_digit_index`] of `dst`.
    #[inline]
    pub fn tag_digit(&self, g: &Geometry, dst: NodeAddr, stage: u32) -> u32 {
        g.digit(dst, self.tag_digit_index(g.n(), stage))
    }

    /// Which digit of the destination the stage-`stage` switches of an
    /// `n`-stage network read ([`Self::tag_digit`]).
    #[inline]
    pub fn tag_digit_index(&self, n: u32, stage: u32) -> u32 {
        debug_assert!(stage < n);
        match self {
            // Cube, Omega and baseline all consume destination digits most
            // significant first; only the wiring between stages differs.
            UnidirKind::Cube | UnidirKind::Omega | UnidirKind::Baseline => n - 1 - stage,
            UnidirKind::Butterfly => {
                if stage == n - 1 {
                    0
                } else {
                    stage + 1
                }
            }
        }
    }

    /// The corresponding [`NetworkKind`] at a given dilation.
    pub fn network_kind(&self, dilation: u8) -> NetworkKind {
        NetworkKind::Unidir {
            wiring: *self,
            dilation,
        }
    }
}

/// Build an `N = k^n` unidirectional MIN with the given wiring and
/// inter-stage channel dilation.
///
/// # Panics
///
/// Panics if `dilation == 0`, or on a geometry outside
/// [`crate::graph::check_limits`].
pub fn build_unidir(g: Geometry, kind: UnidirKind, dilation: u8) -> NetworkGraph {
    assert!(dilation >= 1, "dilation must be at least 1");
    NetworkGraph::new(g, kind.network_kind(dilation))
}

/// Where channel `id` sits in the level-major numbering, as `(level, w,
/// lane)`: level 0 is `id = a` (node `a`'s injection), levels `1..n` are
/// `N + (level − 1)·N·d + w·d + lane`, level `n` is `N + (n − 1)·N·d + w`
/// — `w` the wire's position on the output side of stage `level − 1`.
#[inline]
pub(crate) fn locate(net: &NetworkGraph, id: ChannelId) -> (u32, u32, u32) {
    let n = net.geometry.n();
    let (nodes, d) = (net.kpow[n as usize], net.lanes);
    let last = nodes.get() * (1 + (n - 1) * d.get());
    if id < nodes.get() {
        (0, id, 0)
    } else if id < last {
        // Lanes of a wire are adjacent, wires of a level contiguous.
        let (wire, lane) = d.div_rem(id - nodes.get());
        let (above, w) = nodes.div_rem(wire);
        (1 + above, w, lane)
    } else {
        (n, id - last, 0)
    }
}

/// Position `pos` on `side` of stage `stage`: port `pos % k` of switch
/// `(stage, pos / k)`.
#[inline]
fn port_at(net: &NetworkGraph, stage: u32, side: Side, pos: u32) -> End {
    let (index, port) = net.kpow[1].div_rem(pos);
    let stage = byte(stage);
    End::Port(SwitchDesc { stage, index }, side, port)
}

/// The receiving end of the wire at position `w` of `level`: input
/// position `C_level(w)` of stage `level`, or node `C_n(w)`.
#[inline]
fn head_at(net: &NetworkGraph, kind: UnidirKind, level: u32, w: u32) -> End {
    let g = &net.geometry;
    let v = kind.connection(g, level).apply(&net.kpow[..], NodeAddr(w)).0;
    if level == g.n() {
        End::Node(v)
    } else {
        port_at(net, level, Side::Left, v)
    }
}

/// Channel `id` of the wiring — the graph's definition of
/// [`NetworkGraph::channel`]: from node `w` (level 0) or output position
/// `w` of stage `level − 1`, to [`head_at`]. `topo_rank` is sinks first:
/// level `ℓ` gets rank `n − ℓ`.
#[inline]
pub(crate) fn channel(net: &NetworkGraph, kind: UnidirKind, id: ChannelId) -> ChannelDesc {
    let (level, w, lane) = locate(net, id);
    let src = match level {
        0 => End::Node(w),
        _ => port_at(net, level - 1, Side::Right, w),
    };
    ChannelDesc {
        src: net.endpoint(src),
        dst: net.endpoint(head_at(net, kind, level, w)),
        level: byte(level),
        lane: byte(lane),
        dir: Direction::Forward,
        topo_rank: (net.geometry.n() - level) as u16,
    }
}

/// [`NetworkGraph::out_span`]: output position `w = i·k + c` of stage `s`
/// is the wire at `w` of level `s + 1`, so ports `lo..hi` of switch
/// `(s, i)` hold ids `N + s·N·d + (i·k + lo)·d'` onward, `d'` lanes a
/// port — `d`, or 1 into the nodes — every wiring alike.
#[inline]
pub(crate) fn out_span(net: &NetworkGraph, sw: SwitchDesc, lo: u32, hi: u32) -> PortSpan {
    let n = net.geometry.n();
    let (nodes, k, d) = (net.kpow[n as usize].get(), net.kpow[1].get(), net.lanes.get());
    let stage = u32::from(sw.stage);
    let lanes = if stage + 1 == n { 1 } else { d };
    PortSpan {
        first: nodes + stage * nodes * d + (sw.index * k + lo) * lanes,
        step: 1,
        len: (hi - lo) * lanes,
    }
}

/// The receiving end of channel `id` alone.
#[inline]
pub(crate) fn head(net: &NetworkGraph, kind: UnidirKind, id: ChannelId) -> End {
    let (level, w, _) = locate(net, id);
    head_at(net, kind, level, w)
}

/// Where `level`'s channels sit in the transmit order. Rank is `n − level`
/// and ids are level-major, so the order is the levels reversed, each in
/// id order: the two `N`-id end levels trade places and inner level `ℓ`
/// (`N·d` ids) moves to where inner level `n − ℓ` was — an involution.
#[inline]
pub(crate) fn level_positions(net: &NetworkGraph, level: u32) -> LevelPositions {
    let n = net.geometry.n();
    let inner = net.kpow[n as usize].get() * net.lanes.get();
    let last = net.kpow[n as usize].get() + (n - 1) * inner;
    let delta = match level {
        0 => last,
        l if l == n => last.wrapping_neg(),
        l => n.wrapping_sub(2 * l).wrapping_mul(inner),
    };
    LevelPositions { shift: 0, delta }
}

/// Follow the unique destination-tag path from `src` to `dst`, returning
/// the sequence of `(level, position)` wire positions traversed — a purely
/// topological walk used by structural tests and the partition analysis
/// (lane choice is irrelevant to which *port* is crossed).
///
/// `position` is the wire index within the level (`0..N`), i.e. the channel
/// entering switch `position / k` at port `position % k` (levels `< n`) or
/// reaching node `C_n(position)` (level `n`, where the returned position is
/// the *output side* index before applying `C_n`).
pub fn unique_path_positions(
    g: &Geometry,
    kind: UnidirKind,
    src: NodeAddr,
    dst: NodeAddr,
) -> Vec<(u32, u32)> {
    let k = g.k();
    let n = g.n();
    let mut out = Vec::with_capacity(n as usize + 1);
    // Entering stage 0.
    let mut pos = kind.connection(g, 0).apply(g, src).0;
    out.push((0, pos));
    for stage in 0..n {
        let t = kind.tag_digit(g, dst, stage);
        let out_pos = (pos / k) * k + t; // stay in the same switch, pick output t
        let next = kind.connection(g, stage + 1).apply(g, NodeAddr(out_pos)).0;
        out.push((stage + 1, next));
        pos = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Endpoint;
    use proptest::prelude::*;

    /// The full routing tag `t_0 t_1 … t_{n-1}`.
    fn routing_tag(kind: UnidirKind, g: &Geometry, dst: NodeAddr) -> Vec<u32> {
        (0..g.n()).map(|s| kind.tag_digit(g, dst, s)).collect()
    }

    fn geometries() -> Vec<Geometry> {
        vec![
            Geometry::new(2, 3),
            Geometry::new(2, 4),
            Geometry::new(4, 2),
            Geometry::new(4, 3),
            Geometry::new(8, 2),
        ]
    }

    #[test]
    fn channel_and_switch_counts() {
        // Fig. 4: an 8-node MIN of 2×2 switches has 3 stages of 4 switches
        // and N channels per connection level.
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            for g in geometries() {
                let net = build_unidir(g, kind, 1);
                let n = g.n();
                let nodes = g.nodes();
                assert_eq!(net.num_switches() as u32, n * nodes / g.k());
                assert_eq!(net.num_channels() as u32, (n + 1) * nodes);
                for level in 0..=n {
                    assert_eq!(
                        net.channels_at_level(level as u8, Direction::Forward).len() as u32,
                        nodes,
                        "level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn dilated_channel_counts() {
        // Fig. 5: dilation doubles inter-stage channels but not the
        // node-to-network or network-to-node links.
        let g = Geometry::new(4, 3);
        let net = build_unidir(g, UnidirKind::Cube, 2);
        assert_eq!(net.channels_at_level(0, Direction::Forward).len(), 64);
        assert_eq!(net.channels_at_level(1, Direction::Forward).len(), 128);
        assert_eq!(net.channels_at_level(2, Direction::Forward).len(), 128);
        assert_eq!(net.channels_at_level(3, Direction::Forward).len(), 64);
        // Every inter-stage output port has exactly 2 lanes.
        for s in 0..net.num_switches() as u32 {
            let stage = net.switch(s).stage;
            for code in 0..net.out_port_codes() {
                let expect = if stage as u32 == g.n() - 1 { 1 } else { 2 };
                assert_eq!(net.out_port(s, code).len(), expect);
            }
        }
    }

    #[test]
    fn destination_tag_reaches_destination() {
        // Self-routing (Delta property): the tag path ends at the
        // destination for every (src, dst) pair, both wirings.
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            for g in geometries() {
                let cn = kind.connection(&g, g.n());
                for src in g.addresses() {
                    for dst in g.addresses() {
                        let path = unique_path_positions(&g, kind, src, dst);
                        assert_eq!(path.len() as u32, g.n() + 1);
                        let (level, last) = *path.last().unwrap();
                        assert_eq!(level, g.n());
                        assert_eq!(
                            cn.apply(&g, NodeAddr(last)),
                            dst,
                            "{kind:?} {src}→{dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn banyan_unique_path_property() {
        // Delta networks are banyan: exactly one path per (src, dst). Since
        // destination-tag routing is deterministic and complete, it
        // suffices that distinct sources entering the same switch with the
        // same remaining tag merge — i.e. path count is exactly 1 by
        // construction. Here we verify no two *different* destinations from
        // one source share the final position.
        let g = Geometry::new(4, 3);
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            for src in g.addresses() {
                let mut finals = std::collections::BTreeSet::new();
                for dst in g.addresses() {
                    let path = unique_path_positions(&g, kind, src, dst);
                    assert!(finals.insert(path.last().unwrap().1));
                }
            }
        }
    }

    #[test]
    fn cube_tag_digits() {
        let g = Geometry::new(4, 3);
        let dst = g.parse_addr("213").unwrap();
        assert_eq!(routing_tag(UnidirKind::Cube, &g, dst), vec![2, 1, 3]);
        // Butterfly: t_i = d_{i+1} for i ≤ n-2, t_{n-1} = d_0.
        assert_eq!(routing_tag(UnidirKind::Butterfly, &g, dst), vec![1, 2, 3]);
    }

    #[test]
    fn omega_and_baseline_self_route() {
        // §6's other Delta networks deliver under destination-tag routing
        // and are banyan.
        for kind in [UnidirKind::Omega, UnidirKind::Baseline] {
            for g in geometries() {
                let cn = kind.connection(&g, g.n());
                for src in g.addresses() {
                    for dst in g.addresses() {
                        let path = unique_path_positions(&g, kind, src, dst);
                        let (level, last) = *path.last().unwrap();
                        assert_eq!(level, g.n());
                        assert_eq!(cn.apply(&g, NodeAddr(last)), dst, "{kind:?} {src}→{dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn omega_baseline_wiring_shapes() {
        let g = Geometry::new(2, 3);
        assert_eq!(UnidirKind::Omega.connection(&g, 0), Perm::PerfectShuffle);
        assert_eq!(UnidirKind::Omega.connection(&g, 2), Perm::PerfectShuffle);
        assert_eq!(UnidirKind::Omega.connection(&g, 3), Perm::Identity);
        assert_eq!(UnidirKind::Baseline.connection(&g, 0), Perm::Identity);
        assert_eq!(
            UnidirKind::Baseline.connection(&g, 1),
            Perm::SubInverseShuffle(3)
        );
        assert_eq!(
            UnidirKind::Baseline.connection(&g, 2),
            Perm::SubInverseShuffle(2)
        );
        assert_eq!(UnidirKind::Baseline.connection(&g, 3), Perm::Identity);
        // All four wirings consume the same tag for cube-style kinds.
        let dst = g.parse_addr("101").unwrap();
        assert_eq!(routing_tag(UnidirKind::Omega, &g, dst), vec![1, 0, 1]);
        assert_eq!(routing_tag(UnidirKind::Baseline, &g, dst), vec![1, 0, 1]);
        assert_eq!(routing_tag(UnidirKind::Cube, &g, dst), vec![1, 0, 1]);
    }

    #[test]
    fn all_wirings_build_valid_networks() {
        for kind in [
            UnidirKind::Cube,
            UnidirKind::Butterfly,
            UnidirKind::Omega,
            UnidirKind::Baseline,
        ] {
            for d in [1u8, 2] {
                let net = build_unidir(Geometry::new(4, 3), kind, d);
                assert_eq!(net.kind.wiring(), Some(kind));
                assert_eq!(net.kind.dilation(), d);
            }
        }
    }

    #[test]
    fn connections_match_paper() {
        let g = Geometry::new(2, 3);
        assert_eq!(UnidirKind::Cube.connection(&g, 0), Perm::PerfectShuffle);
        assert_eq!(UnidirKind::Cube.connection(&g, 1), Perm::Butterfly(2));
        assert_eq!(UnidirKind::Cube.connection(&g, 2), Perm::Butterfly(1));
        assert_eq!(UnidirKind::Cube.connection(&g, 3), Perm::Butterfly(0));
        assert_eq!(UnidirKind::Butterfly.connection(&g, 0), Perm::Identity);
        assert_eq!(UnidirKind::Butterfly.connection(&g, 1), Perm::Butterfly(1));
        assert_eq!(UnidirKind::Butterfly.connection(&g, 2), Perm::Butterfly(2));
        assert_eq!(UnidirKind::Butterfly.connection(&g, 3), Perm::Identity);
    }

    #[test]
    fn transmit_order_is_downstream_first() {
        let g = Geometry::new(4, 3);
        let net = build_unidir(g, UnidirKind::Cube, 2);
        let order = net.transmit_order();
        // Ejection channels (level n) come first, injection (level 0) last.
        assert_eq!(net.channel(order[0]).level as u32, g.n());
        assert_eq!(net.channel(*order.last().unwrap()).level, 0);
        let mut prev = 0u16;
        for &c in order {
            let r = net.channel(c).topo_rank;
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn one_port_architecture() {
        let g = Geometry::new(4, 3);
        let net = build_unidir(g, UnidirKind::Butterfly, 2);
        // Exactly one inject and one eject channel per node.
        for a in 0..g.nodes() {
            let inj = net.channel(net.inject(a));
            assert_eq!(inj.src, Endpoint::Node(a));
            assert_eq!(inj.level, 0);
            let ej = net.channel(net.eject(a));
            assert_eq!(ej.dst, Endpoint::Node(a));
            assert_eq!(ej.level as u32, g.n());
        }
    }

    proptest! {
        #[test]
        fn prop_builders_valid_for_any_shape(
            k in 2u32..6,
            n in 1u32..5,
            d in 1u8..4,
            which in 0usize..4,
        ) {
            let kind = [
                UnidirKind::Cube,
                UnidirKind::Butterfly,
                UnidirKind::Omega,
                UnidirKind::Baseline,
            ][which];
            let g = Geometry::new(k, n);
            let net = build_unidir(g, kind, d);
            prop_assert!(net.validate().is_ok());
            let nodes = g.nodes();
            // N injection + N ejection + (n-1)·N·d inter-stage channels.
            prop_assert_eq!(
                net.num_channels() as u32,
                2 * nodes + (n - 1) * nodes * d as u32
            );
            // The transmit order is downstream-first: for the
            // unidirectional builders rank = n - level, so connection
            // levels are non-increasing along the order.
            let order = net.transmit_order();
            let mut prev = u8::MAX;
            for &c in order {
                let lvl = net.channel(c).level;
                prop_assert!(lvl <= prev);
                prev = lvl;
            }
        }

        #[test]
        fn prop_path_positions_consistent(seed in 0u32..10_000) {
            // The path's consecutive wire positions are linked by the
            // connection permutations and stay within one switch between
            // input and output.
            let g = Geometry::new(4, 3);
            let src = NodeAddr(seed % g.nodes());
            let dst = NodeAddr((seed / 64) % g.nodes());
            for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
                let path = unique_path_positions(&g, kind, src, dst);
                for w in path.windows(2) {
                    let (lvl, pos) = w[0];
                    let (lvl2, pos2) = w[1];
                    prop_assert_eq!(lvl2, lvl + 1);
                    // pos2 = C_{lvl+1}((pos / k)*k + t_lvl)
                    let t = kind.tag_digit(&g, dst, lvl);
                    let out = (pos / g.k()) * g.k() + t;
                    prop_assert_eq!(
                        kind.connection(&g, lvl + 1).apply(&g, NodeAddr(out)).0,
                        pos2
                    );
                }
            }
        }
    }
}
