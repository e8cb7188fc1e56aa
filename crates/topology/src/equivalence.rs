//! Topological-equivalence utilities: path counting, the banyan property,
//! and the rightmost-stage reduction of Fig. 12.
//!
//! All Delta-class MINs are banyan (exactly one path per source/destination
//! pair); cube and butterfly TMINs are topologically and functionally
//! equivalent [Wu & Feng]. The BMIN has `k^t` shortest paths (Theorem 1).
//! For `k = 2`, the rightmost BMIN stage is redundant and can be removed
//! (Fig. 12): each 2×2 switch at stage `n-1` only ever performs a fixed
//! crossover between its two left ports, so the stage collapses to a wiring.
//!
//! The path counter walks the channel graph under the *connection legality*
//! rules of the switches (Fig. 2): unidirectional switches connect any
//! input to any output; bidirectional switches allow forward (`l→r`),
//! backward (`r→l`) and turnaround (`l_i→l_j`, `i ≠ j`) connections but
//! never `r→r`.

use crate::graph::{ChannelId, Direction, Endpoint, NetworkGraph, NodeId, Side};
use std::collections::VecDeque;

/// Legal next channels for a worm whose header just arrived over `c`.
///
/// Returns an empty list when `c` terminates at a node.
pub fn legal_successors(net: &NetworkGraph, c: ChannelId, out: &mut Vec<ChannelId>) {
    out.clear();
    let ch = net.channel(c);
    let (sw, side, port) = match ch.dst {
        Endpoint::Node(_) => return,
        Endpoint::Switch { sw, side, port } => (sw, side, port),
    };
    let k = net.geometry.k();
    if !net.kind.is_bidirectional() {
        out.extend(net.out_all(sw));
        return;
    }
    match side {
        Side::Left => {
            // Arrived moving forward: may continue forward on any right
            // output, or turn around to a *different* left output.
            out.extend(net.out_port_span(sw, 0, u32::from(port)));
            out.extend(net.out_port_span(sw, u32::from(port) + 1, k));
            out.extend(net.out_port_span(sw, k, 2 * k));
        }
        Side::Right => {
            // Arrived moving backward: left outputs only.
            out.extend(net.out_port_span(sw, 0, k));
        }
    }
}

/// Count the shortest channel-paths from node `s` to node `d` under the
/// switch legality rules. Returns `(length_in_channels, path_count)`, or
/// `None` if `d` is unreachable (or `s == d`, which needs no network path).
pub fn count_shortest_paths(net: &NetworkGraph, s: NodeId, d: NodeId) -> Option<(u32, u64)> {
    count_shortest_paths_spliced(net, None, s, d)
}

/// Like [`count_shortest_paths`], but with an optional splice map: if
/// `splice[c] = Some(c2)`, entering channel `c` immediately continues as
/// channel `c2` at no extra hop (the two channels are fused into one wire,
/// as in the Fig. 12 stage removal).
pub fn count_shortest_paths_spliced(
    net: &NetworkGraph,
    splice: Option<&[Option<ChannelId>]>,
    s: NodeId,
    d: NodeId,
) -> Option<(u32, u64)> {
    if s == d {
        return None;
    }
    let resolve = |c: ChannelId| -> ChannelId {
        match splice {
            Some(map) => map[c as usize].unwrap_or(c),
            None => c,
        }
    };
    let nch = net.num_channels();
    let mut dist = vec![u32::MAX; nch];
    let mut count = vec![0u64; nch];
    let start = resolve(net.inject(s));
    let target = net.eject(d);
    dist[start as usize] = 1;
    count[start as usize] = 1;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    let mut succ = Vec::new();
    while let Some(c) = queue.pop_front() {
        if c == target {
            // BFS guarantees the first pop of `target` is at its final
            // distance; counts into it keep accumulating from same-level
            // predecessors processed earlier, so finish the level.
        }
        legal_successors(net, c, &mut succ);
        let base = dist[c as usize];
        let cnt = count[c as usize];
        for &raw in &succ {
            let v = resolve(raw) as usize;
            if dist[v] == u32::MAX {
                dist[v] = base + 1;
                count[v] = cnt;
                queue.push_back(v as ChannelId);
            } else if dist[v] == base + 1 {
                count[v] += cnt;
            }
        }
    }
    if dist[target as usize] == u32::MAX {
        None
    } else {
        Some((dist[target as usize], count[target as usize]))
    }
}

/// Whether the network is banyan: exactly one path between every
/// source/destination pair.
pub fn is_banyan(net: &NetworkGraph) -> bool {
    let n = net.geometry.nodes();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            match count_shortest_paths(net, s, d) {
                Some((_, 1)) => {}
                _ => return false,
            }
        }
    }
    true
}

/// Histogram of shortest-path lengths over all ordered pairs: entry `(len,
/// pairs)` sorted by length. Two networks with the same profile are
/// plausibly functionally equivalent; Delta networks all share the profile
/// `{n+1: N(N-1)}`.
pub fn path_length_profile(net: &NetworkGraph) -> Vec<(u32, u64)> {
    let n = net.geometry.nodes();
    let mut map = std::collections::BTreeMap::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            if let Some((len, _)) = count_shortest_paths(net, s, d) {
                *map.entry(len).or_insert(0u64) += 1;
            }
        }
    }
    map.into_iter().collect()
}

/// The Fig. 12 reduction for a `k = 2` BMIN: a splice map fusing each
/// forward channel into stage `n-1` with the backward channel that leaves
/// the *other* left port of the same switch (a fixed crossover — see the
/// module docs for why the rightmost 2×2 stage never routes straight).
///
/// # Panics
///
/// Panics if the network is not a BMIN with `k = 2`.
pub fn bmin_rightmost_stage_splice(net: &NetworkGraph) -> Vec<Option<ChannelId>> {
    assert!(net.kind.is_bidirectional(), "splice applies to BMINs");
    assert_eq!(net.geometry.k(), 2, "Fig. 12 reduction requires k = 2");
    let top = (net.geometry.n() - 1) as u8;
    let mut map = vec![None; net.num_channels()];
    for (idx, ch) in net.channels().enumerate() {
        if ch.dir != Direction::Forward || ch.level != top {
            continue;
        }
        let (sw, port) = match ch.dst {
            Endpoint::Switch { sw, port, .. } => (sw, port),
            _ => unreachable!("forward inter-stage channels end at switches"),
        };
        let other = 1 - u32::from(port);
        let lanes = net.out_port(sw, other);
        assert_eq!(lanes.len(), 1, "BMIN ports carry a single lane");
        map[idx] = lanes.get(0);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Geometry;
    use crate::bmin::build_bmin;
    use crate::unidir::{build_unidir, UnidirKind};

    #[test]
    fn tmins_are_banyan() {
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            for g in [Geometry::new(2, 3), Geometry::new(4, 2), Geometry::new(4, 3)] {
                let net = build_unidir(g, kind, 1);
                assert!(is_banyan(&net), "{kind:?} {g:?}");
            }
        }
    }

    #[test]
    fn dilated_min_path_counts() {
        // With dilation d, each of the n-1 inter-stage hops has d lane
        // choices: d^{n-1} channel-paths, all of length n+1.
        let g = Geometry::new(4, 3);
        let net = build_unidir(g, UnidirKind::Cube, 2);
        for s in 0..8u32 {
            for d in 56..64u32 {
                let (len, count) = count_shortest_paths(&net, s, d).unwrap();
                assert_eq!(len, 4);
                assert_eq!(count, 4); // 2^(3-1)
            }
        }
    }

    #[test]
    fn unidirectional_path_length_is_n_plus_1() {
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            let g = Geometry::new(4, 3);
            let net = build_unidir(g, kind, 1);
            let profile = path_length_profile(&net);
            assert_eq!(profile, vec![(4, 64 * 63)]);
        }
    }

    #[test]
    fn cube_and_butterfly_share_profile() {
        // Functional equivalence evidence (Wu & Feng): identical
        // shortest-path-length profiles.
        let g = Geometry::new(2, 4);
        let cube = path_length_profile(&build_unidir(g, UnidirKind::Cube, 1));
        let butterfly = path_length_profile(&build_unidir(g, UnidirKind::Butterfly, 1));
        assert_eq!(cube, butterfly);
    }

    #[test]
    fn all_delta_wirings_are_banyan_with_same_profile() {
        // Omega and baseline belong to the same topological-equivalence
        // class (Wu & Feng) — banyan, constant path length n+1.
        let g = Geometry::new(2, 3);
        let reference = path_length_profile(&build_unidir(g, UnidirKind::Cube, 1));
        for kind in [UnidirKind::Omega, UnidirKind::Baseline] {
            let net = build_unidir(g, kind, 1);
            assert!(is_banyan(&net), "{kind:?}");
            assert_eq!(path_length_profile(&net), reference, "{kind:?}");
        }
    }

    #[test]
    fn bmin_shortest_path_counts_match_theorem_1() {
        // Theorem 1: k^t shortest paths of length 2(t+1).
        for g in [Geometry::new(2, 3), Geometry::new(2, 4), Geometry::new(4, 2), Geometry::new(4, 3)] {
            let net = build_bmin(g);
            for s in g.addresses() {
                for d in g.addresses() {
                    if s == d {
                        continue;
                    }
                    let t = g.first_difference(s, d).unwrap();
                    let (len, count) = count_shortest_paths(&net, s.0, d.0).unwrap();
                    assert_eq!(len, 2 * (t + 1), "len {s}→{d}");
                    assert_eq!(count, (g.k() as u64).pow(t), "count {s}→{d}");
                }
            }
        }
    }

    #[test]
    fn fig9_fig10_examples() {
        // Fig. 9: 8-node, 2×2 switches — t=2 gives 4 paths, t=1 gives 2.
        let g2 = Geometry::new(2, 3);
        let net2 = build_bmin(g2);
        let s = g2.parse_addr("001").unwrap().0;
        let d = g2.parse_addr("101").unwrap().0;
        assert_eq!(count_shortest_paths(&net2, s, d), Some((6, 4)));
        let d1 = g2.parse_addr("010").unwrap().0;
        assert_eq!(count_shortest_paths(&net2, s, d1), Some((4, 2)));
        // Fig. 10: 16-node, 4×4 switches — one path (t=0) and four (t=1).
        let g4 = Geometry::new(4, 2);
        let net4 = build_bmin(g4);
        assert_eq!(count_shortest_paths(&net4, 0, 1), Some((2, 1)));
        assert_eq!(count_shortest_paths(&net4, 0, 7), Some((4, 4)));
    }

    #[test]
    fn fig12_rightmost_stage_removal() {
        // The spliced (stage-removed) k=2 BMIN preserves path multiplicity;
        // pairs that turned at the top stage lose exactly one hop.
        for g in [Geometry::new(2, 3), Geometry::new(2, 4)] {
            let net = build_bmin(g);
            let splice = bmin_rightmost_stage_splice(&net);
            for s in g.addresses() {
                for d in g.addresses() {
                    if s == d {
                        continue;
                    }
                    let t = g.first_difference(s, d).unwrap();
                    let (len, count) = count_shortest_paths(&net, s.0, d.0).unwrap();
                    let (len2, count2) =
                        count_shortest_paths_spliced(&net, Some(&splice), s.0, d.0).unwrap();
                    assert_eq!(count2, count, "{s}→{d}");
                    let expect = if t == g.n() - 1 { len - 1 } else { len };
                    assert_eq!(len2, expect, "{s}→{d}");
                }
            }
        }
    }

    #[test]
    fn no_r_to_r_connection() {
        // legal_successors never offers a right output to a worm arriving
        // on a right input (the deadlock-critical rule of Fig. 2).
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let k = g.k() as usize;
        let mut succ = Vec::new();
        for c in 0..net.num_channels() as ChannelId {
            let ch = net.channel(c);
            if let Endpoint::Switch { sw, side: Side::Right, .. } = ch.dst {
                legal_successors(&net, c, &mut succ);
                for &s in &succ {
                    let out = net.channel(s);
                    match out.src {
                        Endpoint::Switch { sw: sw2, side, port } => {
                            assert_eq!(sw2, sw);
                            assert_eq!(side, Side::Left);
                            assert!((port as usize) < k);
                        }
                        _ => panic!("successor must originate at the switch"),
                    }
                }
            }
        }
    }

    #[test]
    fn turnaround_excludes_same_port() {
        // A worm arriving on left port i is never offered left output i.
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let mut succ = Vec::new();
        for c in 0..net.num_channels() as ChannelId {
            let ch = net.channel(c);
            if let Endpoint::Switch { sw, side: Side::Left, port } = ch.dst {
                legal_successors(&net, c, &mut succ);
                for &s in &succ {
                    if let Endpoint::Switch { sw: sw2, side: Side::Left, port: p2 } =
                        net.channel(s).src
                    {
                        assert!(sw2 != sw || p2 != port, "same-port turnaround offered");
                    }
                }
            }
        }
    }
}
