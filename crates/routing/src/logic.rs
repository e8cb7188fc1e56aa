//! [`RouteLogic`] — the routing function consumed by the simulation engine.
//!
//! Given the channel over which a worm's header has just arrived, the logic
//! returns every output channel the header may legally request next. Lane
//! and virtual-channel *selection* among these candidates is the engine's
//! allocation policy (the paper uses uniform random choice among the free
//! ones); the logic itself is deterministic.

use crate::turnaround::{turnaround_action, TurnaroundAction};
use minnet_topology::{
    ChannelId, Endpoint, NetworkGraph, NetworkKind, NodeAddr, NodeId, Side, UnidirKind,
};

/// A routing function for one of the paper's network families.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteLogic {
    /// Destination-tag (self-routing) for unidirectional Delta MINs. At
    /// stage `G_i` the packet leaves through output port `t_i`; with
    /// dilation, every lane of that port is a candidate.
    DestinationTag(UnidirKind),
    /// Turnaround routing for the butterfly BMIN (Fig. 7). Moving forward
    /// below the turn stage, every forward output is a candidate
    /// (adaptivity); the turn and the backward walk are deterministic.
    Turnaround,
}

impl RouteLogic {
    /// The natural routing logic for a network kind.
    pub fn for_kind(kind: NetworkKind) -> RouteLogic {
        match kind {
            NetworkKind::Unidir { wiring, .. } => RouteLogic::DestinationTag(wiring),
            NetworkKind::Bmin => RouteLogic::Turnaround,
        }
    }

    /// Collect into `out` the output channels a header arriving over `at`
    /// may request next, for a packet travelling `src → dst`. `out` is
    /// empty exactly when `at` terminates at the destination node.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` terminates at a node other than
    /// `dst` — that would mean the logic previously misrouted.
    pub fn candidates(
        &self,
        net: &NetworkGraph,
        src: NodeId,
        dst: NodeId,
        at: ChannelId,
        out: &mut Vec<ChannelId>,
    ) {
        out.clear();
        let ch = net.channel(at);
        let (sw, side, port) = match ch.dst {
            Endpoint::Node(n) => {
                debug_assert_eq!(n, dst, "worm delivered to the wrong node");
                return;
            }
            Endpoint::Switch { sw, side, port } => (sw, side, port),
        };
        let swd = net.switch(sw);
        let g = &net.geometry;
        match *self {
            RouteLogic::DestinationTag(kind) => {
                debug_assert_eq!(side, Side::Left, "unidirectional inputs are left-side");
                let t = kind.tag_digit(g, NodeAddr(dst), swd.stage as u32);
                out.extend(net.out_port(sw, t));
            }
            RouteLogic::Turnaround => {
                let k = g.k();
                match turnaround_action(g, swd.stage as u32, side, NodeAddr(src), NodeAddr(dst)) {
                    TurnaroundAction::ForwardAny => {
                        out.extend(net.out_port_span(sw, k, 2 * k));
                    }
                    TurnaroundAction::Turn(p) => {
                        debug_assert_ne!(
                            p as u8, port,
                            "turnaround may not reuse the arrival port (Def. 4)"
                        );
                        out.extend(net.out_port(sw, p));
                    }
                    TurnaroundAction::Backward(p) => {
                        out.extend(net.out_port(sw, p));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::{build_bmin, build_unidir, Geometry};

    /// Walk a worm from src to dst always taking the candidate at
    /// `pick % len`, returning the channel path.
    fn walk(
        net: &NetworkGraph,
        logic: RouteLogic,
        src: NodeId,
        dst: NodeId,
        mut pick: usize,
    ) -> Vec<ChannelId> {
        let mut path = vec![net.inject(src)];
        let mut cands = Vec::new();
        loop {
            logic.candidates(net, src, dst, *path.last().unwrap(), &mut cands);
            if cands.is_empty() {
                return path;
            }
            let c = cands[pick % cands.len()];
            pick = pick.wrapping_mul(2654435761).wrapping_add(1);
            path.push(c);
            assert!(path.len() <= 64, "routing loop detected");
        }
    }

    #[test]
    fn destination_tag_always_delivers() {
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            let g = Geometry::new(4, 3);
            let net = build_unidir(g, kind, 2);
            let logic = RouteLogic::for_kind(net.kind);
            for s in 0..g.nodes() {
                for d in 0..g.nodes() {
                    if s == d {
                        continue;
                    }
                    for pick in 0..3 {
                        let path = walk(&net, logic, s, d, pick);
                        assert_eq!(path.len() as u32, g.n() + 1);
                        assert_eq!(net.channel(*path.last().unwrap()).dst.node(), Some(d));
                    }
                }
            }
        }
    }

    #[test]
    fn turnaround_always_delivers_with_correct_length() {
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let logic = RouteLogic::Turnaround;
        for s in 0..g.nodes() {
            for d in 0..g.nodes() {
                if s == d {
                    continue;
                }
                let t = g.first_difference(NodeAddr(s), NodeAddr(d)).unwrap();
                for pick in 0..5 {
                    let path = walk(&net, logic, s, d, pick);
                    assert_eq!(path.len() as u32, 2 * (t + 1), "{s}→{d}");
                    assert_eq!(net.channel(*path.last().unwrap()).dst.node(), Some(d));
                }
            }
        }
    }

    #[test]
    fn forward_candidates_have_full_fanout() {
        // Below the turn stage a forward header sees all k forward
        // channels (the BMIN's adaptivity).
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let logic = RouteLogic::Turnaround;
        let mut cands = Vec::new();
        // 0 → 63 has t = 2: at the stage-0 input the header may pick any
        // of the 4 forward channels.
        logic.candidates(&net, 0, 63, net.inject(0), &mut cands);
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn dilated_candidates_cover_all_lanes() {
        let g = Geometry::new(4, 3);
        let net = build_unidir(g, UnidirKind::Cube, 2);
        let logic = RouteLogic::for_kind(net.kind);
        let mut cands = Vec::new();
        logic.candidates(&net, 0, 63, net.inject(0), &mut cands);
        assert_eq!(cands.len(), 2); // one output port, two lanes
        let a = net.channel(cands[0]);
        let b = net.channel(cands[1]);
        assert_eq!(a.src, b.src);
        assert_ne!(a.lane, b.lane);
    }

    #[test]
    fn candidates_empty_at_destination() {
        let g = Geometry::new(2, 3);
        let net = build_unidir(g, UnidirKind::Cube, 1);
        let logic = RouteLogic::for_kind(net.kind);
        let mut cands = vec![99];
        logic.candidates(&net, 1, 5, net.eject(5), &mut cands);
        assert!(cands.is_empty());
    }
}
