//! Builder for the bidirectional butterfly MIN (paper §3, Fig. 6).
//!
//! An `N = k^n` node butterfly BMIN has `n` stages of `k^{n-1}` bidirectional
//! `k × k` switches. Processor nodes sit on the left of stage `G_0`; each
//! link is a pair of opposite unidirectional channels. We use the classic
//! k-ary butterfly wiring:
//!
//! * A switch at stage `j` is labelled by an `(n-1)`-digit k-ary number `s`.
//! * Node `a = a_{n-1}…a_0` attaches to switch `(0, a_{n-1}…a_1)` at left
//!   port `a_0`.
//! * For `1 ≤ j ≤ n-1`, switch `(j, s)` connects through its left port `c`
//!   to switch `(j-1, s[digit j-1 := c])`'s right port `s_{j-1}`.
//!
//! Consequences (proved in the tests and used throughout):
//!
//! * going **forward** (up, away from nodes) from stage `j` to `j+1` can
//!   change only digit `j` of the switch label, so after ascending to stage
//!   `t` the label still agrees with the source address on digits `≥ t`;
//! * a node `D` is reachable going **backward** (down) from `(j, s)` iff
//!   `s_i = d_{i+1}` for all `i ≥ j`, and the down port to take at stage
//!   `j` is `d_j` — exactly the paper's turnaround routing (Fig. 7);
//! * a message from `S` to `D` must ascend to stage
//!   `t = FirstDifference(S, D)` and there are `k^t` shortest paths
//!   (Theorem 1).

use crate::address::Geometry;
use crate::graph::{
    byte, ChannelDesc, ChannelId, Direction, End, LevelPositions, NetworkGraph, NetworkKind,
    PortSpan, Side, SwitchDesc,
};

/// Build an `N = k^n` butterfly BMIN.
///
/// Output-port codes on each switch: `0..k` are the left-side (backward /
/// node-facing) outputs `l_i`; `k..2k` are the right-side (forward) outputs
/// `r_i`. Stage `n-1` switches have no forward output channels — the paper
/// leaves those ports available for building larger networks.
///
/// # Panics
///
/// Panics on a geometry outside [`crate::graph::check_limits`].
pub fn build_bmin(g: Geometry) -> NetworkGraph {
    NetworkGraph::new(g, NetworkKind::Bmin)
}

/// Where channel `id = 2N·j + 2·idx + down` sits, as `(j, idx, down)`:
/// link `idx` of level `j`, its up channel then its down channel.
#[inline]
fn locate(net: &NetworkGraph, id: ChannelId) -> (u32, u32, bool) {
    let (j, idx) = net.kpow[net.geometry.n() as usize].div_rem(id / 2);
    (j, idx, id % 2 == 1)
}

/// The node-side end of link `idx` of level `j`: node `idx` at level 0;
/// above it, with `idx = s·k + c`, right port `s_{j-1}` of switch
/// `(j-1, s[digit j-1 := c])`.
#[inline]
fn lower(net: &NetworkGraph, j: u32, idx: u32) -> End {
    if j == 0 {
        return End::Node(idx);
    }
    let (k, p) = (net.kpow[1], net.kpow[j as usize - 1].get());
    let (s, c) = k.div_rem(idx);
    // Digit `j` of `idx` (`s_{j-1}`) from two independent quotients: the
    // route lookup waits on this chain.
    let port =
        net.kpow[j as usize].div_rem(idx).0 - net.kpow[j as usize + 1].div_rem(idx).0 * k.get();
    let (stage, index) = (byte(j - 1), s - port * p + c * p);
    End::Port(SwitchDesc { stage, index }, Side::Right, port)
}

/// The far end of link `idx` of level `j`: left port `idx % k` of switch
/// `(j, idx / k)` — node `a` attaches to `(0, a / k)` at port `a % k`.
#[inline]
fn upper(net: &NetworkGraph, j: u32, idx: u32) -> End {
    let (index, port) = net.kpow[1].div_rem(idx);
    let stage = byte(j);
    End::Port(SwitchDesc { stage, index }, Side::Left, port)
}

/// Channel `id` of the wiring — the graph's definition of
/// [`NetworkGraph::channel`]. `topo_rank`: all down channels (by level
/// ascending) precede all up channels (by level descending): down `ℓ` →
/// `ℓ`, up `ℓ` → `2n-1-ℓ`.
#[inline]
pub(crate) fn channel(net: &NetworkGraph, id: ChannelId) -> ChannelDesc {
    let (j, idx, down) = locate(net, id);
    let (lo, hi) = (net.endpoint(lower(net, j, idx)), net.endpoint(upper(net, j, idx)));
    let (src, dst, dir, rank) = if down {
        (hi, lo, Direction::Backward, j)
    } else {
        (lo, hi, Direction::Forward, 2 * net.geometry.n() - 1 - j)
    };
    ChannelDesc {
        src,
        dst,
        level: byte(j),
        lane: 0,
        dir,
        topo_rank: rank as u16,
    }
}

/// [`NetworkGraph::out_span`], [`upper`] and [`lower`] solved for the
/// id. Left code `c` of switch `(j, i)` is the down half of link `i·k + c`
/// of level `j`: id `2N·j + 2(i·k + c) + 1`, step 2. Right port `q` is the
/// up half of link `s·k + c` of level `j + 1`, where `c = i_j` and `s` is
/// `i` with digit `j` replaced by `q` — so each next port moves the link
/// by `k^(j+1)`, the id by twice that. The top stage has no right ports.
#[inline]
pub(crate) fn out_span(net: &NetworkGraph, sw: SwitchDesc, lo: u32, hi: u32) -> PortSpan {
    let (n, k, i) = (net.geometry.n(), net.kpow[1], sw.index);
    let (j, nodes) = (u32::from(sw.stage), net.kpow[n as usize].get());
    if hi <= k.get() {
        return PortSpan { first: 2 * (nodes * j + i * k.get() + lo) + 1, step: 2, len: hi - lo };
    }
    if j + 1 == n {
        return PortSpan::default();
    }
    let pj = net.kpow[j as usize];
    let c = k.div_rem(pj.div_rem(i).0).1;
    let s = i - c * pj.get() + (lo - k.get()) * pj.get();
    PortSpan {
        first: 2 * (nodes * (j + 1) + s * k.get() + c),
        step: 2 * pj.get() * k.get(),
        len: hi - lo,
    }
}

/// The receiving end of channel `id` alone.
#[inline]
pub(crate) fn head(net: &NetworkGraph, id: ChannelId) -> End {
    let (j, idx, down) = locate(net, id);
    if down {
        lower(net, j, idx)
    } else {
        upper(net, j, idx)
    }
}

/// The level and direction of channel `id`.
#[inline]
pub(crate) fn level_of(net: &NetworkGraph, id: ChannelId) -> (u32, Direction) {
    let (j, _, down) = locate(net, id);
    (j, if down { Direction::Backward } else { Direction::Forward })
}

/// Where the channels `id = 2N·j + 2·idx + down` of level `j` going `dir`
/// sit in the transmit order: down channels rank by level ascending, down
/// `(j, idx)` at `N·j + idx = (id − 1) / 2`; the up channels follow, levels
/// descending, at `N·(2n − 1 − j) + idx = (id + 2N·(2n − 1 − 2j)) / 2`.
#[inline]
pub(crate) fn level_positions(net: &NetworkGraph, j: u32, dir: Direction) -> LevelPositions {
    let (n, nodes) = (net.geometry.n(), net.kpow[net.geometry.n() as usize].get());
    let delta = match dir {
        Direction::Backward => u32::MAX,
        Direction::Forward => 2 * nodes * (2 * n - 1 - 2 * j),
    };
    LevelPositions { shift: 1, delta }
}

/// [`NetworkGraph::channel_at`]: the first `n·N` positions are the down
/// channels in id order, the rest the up channels, levels descending.
#[inline]
pub(crate) fn channel_at(net: &NetworkGraph, pos: u32) -> ChannelId {
    let (n, nodes) = (net.geometry.n(), net.kpow[net.geometry.n() as usize]);
    if pos < n * nodes.get() {
        return 2 * pos + 1;
    }
    let (rank, idx) = nodes.div_rem(pos);
    2 * (nodes.get() * (2 * n - 1 - rank) + idx)
}

#[cfg(test)]
/// Digit `i` of an `(n-1)`-digit switch label.
fn label_digit(g: &Geometry, label: u32, i: u32) -> u32 {
    debug_assert!(i + 1 < g.n());
    (label / g.k().pow(i)) % g.k()
}

#[cfg(test)]
/// The set of node addresses reachable going *down* (backward) from switch
/// `(stage, label)` — the leaves of the fat-tree subtree rooted there.
pub(crate) fn down_reachable(g: &Geometry, stage: u32, label: u32) -> Vec<u32> {
    (0..g.nodes())
        .filter(|&a| {
            (stage..g.n() - 1).all(|i| label_digit(g, label, i) == g.digit(a.into(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Endpoint;
    use crate::address::NodeAddr;

    #[test]
    fn channel_and_switch_counts() {
        // Fig. 6: the 8-node butterfly BMIN has 3 stages of 4 switches and
        // N channel *pairs* per level.
        for (k, n) in [(2u32, 3u32), (2, 4), (4, 2), (4, 3)] {
            let g = Geometry::new(k, n);
            let net = build_bmin(g);
            assert_eq!(net.num_switches() as u32, n * g.nodes() / k);
            assert_eq!(net.num_channels() as u32, 2 * n * g.nodes());
            for level in 0..n {
                assert_eq!(
                    net.channels_at_level(level as u8, Direction::Forward).len() as u32,
                    g.nodes()
                );
                assert_eq!(
                    net.channels_at_level(level as u8, Direction::Backward).len() as u32,
                    g.nodes()
                );
            }
        }
    }

    #[test]
    fn links_are_paired() {
        // Every forward channel has an opposite backward channel between
        // the same two endpoints.
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let mut fwd = 0;
        for ch in net.channels() {
            if ch.dir == Direction::Forward {
                fwd += 1;
                assert!(
                    net.channels().any(|o| o.dir == Direction::Backward
                        && o.src == ch.dst
                        && o.dst == ch.src),
                    "unpaired forward channel {ch:?}"
                );
            }
        }
        assert_eq!(fwd * 2, net.num_channels());
    }

    #[test]
    fn up_moves_change_only_current_digit() {
        // Forward channel from stage j-1 switch s' to stage j switch s:
        // labels agree except possibly at digit j-1.
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let per_stage = g.nodes() / g.k();
        for ch in net.channels() {
            if ch.dir != Direction::Forward || ch.level == 0 {
                continue;
            }
            let lo = ch.src.switch().unwrap() % per_stage;
            let hi = ch.dst.switch().unwrap() % per_stage;
            let j = ch.level as u32;
            for i in 0..g.n() - 1 {
                if i != j - 1 {
                    assert_eq!(label_digit(&g, lo, i), label_digit(&g, hi, i));
                }
            }
        }
    }

    #[test]
    fn down_reachable_sets() {
        let g = Geometry::new(2, 3);
        // Stage 0 switch `s` reaches exactly nodes {2s, 2s+1}.
        for s in 0..4 {
            assert_eq!(down_reachable(&g, 0, s), vec![2 * s, 2 * s + 1]);
        }
        // Stage 2 (root level): every switch reaches all nodes.
        for s in 0..4 {
            assert_eq!(down_reachable(&g, 2, s).len(), 8);
        }
        // Stage 1 switch label s = s_1 s_0: reaches nodes with a_2 = s_1.
        let reach = down_reachable(&g, 1, 0b10);
        assert_eq!(reach, vec![4, 5, 6, 7]);
    }

    #[test]
    fn down_port_digit_rule() {
        // From (j, s), the down port c leads to a switch/nodes whose
        // "digit j" is c: at stage 0, left port c leads to node with
        // a_0 = c; at stage j ≥ 1 it pins digit j-1 of the lower label,
        // whose down-reachable leaves all have a_j = c.
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let per_stage = g.nodes() / g.k();
        for ch in net.channels() {
            if ch.dir != Direction::Backward {
                continue;
            }
            let (sw, port) = match ch.src {
                Endpoint::Switch { sw, port, .. } => (sw, port),
                _ => unreachable!("backward channels originate at switches"),
            };
            let stage = net.switch(sw).stage as u32;
            let label = sw % per_stage;
            let _ = label;
            match ch.dst {
                Endpoint::Node(a) => {
                    assert_eq!(stage, 0);
                    assert_eq!(g.digit(NodeAddr(a), 0), port as u32);
                }
                Endpoint::Switch { sw: lo, .. } => {
                    let lo_label = lo % per_stage;
                    for leaf in down_reachable(&g, stage - 1, lo_label) {
                        assert_eq!(g.digit(NodeAddr(leaf), stage), port as u32);
                    }
                }
            }
        }
    }

    #[test]
    fn turnaround_reachability_matches_first_difference() {
        // From source S, ascending j stages reaches switches whose labels
        // agree with S's digits above j; D is down-reachable from such a
        // switch at stage t iff t >= FirstDifference(S, D).
        let g = Geometry::new(2, 3);
        for s in g.addresses() {
            for d in g.addresses() {
                if s == d {
                    continue;
                }
                let t = g.first_difference(s, d).unwrap();
                // A switch at stage t with label matching both S (digits
                // >= t) and the down-reachability requirement for D exists:
                // digits i >= t of the label must equal s_{i+1} = d_{i+1}.
                for i in t..g.n() - 1 {
                    assert_eq!(g.digit(s, i + 1), g.digit(d, i + 1));
                }
                if t > 0 {
                    // At any stage below t the source-side constraint
                    // conflicts with D's requirement at digit t-1 …
                    // (s_t ≠ d_t means no switch at stage t' < t works).
                    assert_ne!(g.digit(s, t), g.digit(d, t));
                }
            }
        }
    }

    #[test]
    fn stage_last_has_no_forward_outputs() {
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let k = g.k();
        for s in 0..net.num_switches() as u32 {
            let fwd_lanes = net.out_port_span(s, k, 2 * k).len();
            if net.switch(s).stage as u32 == g.n() - 1 {
                assert_eq!(fwd_lanes, 0);
            } else {
                assert_eq!(fwd_lanes, k as usize);
            }
        }
    }

    #[test]
    fn transmit_order_down_before_up() {
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let order = net.transmit_order();
        // First channel: a backward level-0 (ejection) channel; last: a
        // forward level-0 (injection) channel.
        let first = net.channel(order[0]);
        assert_eq!((first.dir, first.level), (Direction::Backward, 0));
        let last = net.channel(*order.last().unwrap());
        assert_eq!((last.dir, last.level), (Direction::Forward, 0));
    }
}
