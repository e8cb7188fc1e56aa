//! Channel-dependency-graph deadlock analysis (paper §3.2.1).
//!
//! Wormhole routing is deadlock-free iff the channel dependency graph (CDG)
//! is acyclic [Dally & Seitz]. A worm holding channel `c1` *depends on*
//! channel `c2` if it may request `c2` while holding `c1`. We build the CDG
//! from the switch connection rules and check it with a DFS cycle search.
//!
//! Two rule sets are provided:
//!
//! * [`DependencyRule::Paper`] — the legal connections of Fig. 2 (no
//!   `r → r` connection in bidirectional switches). The paper argues the
//!   resulting turnaround routing is deadlock-free because a message turns
//!   exactly once; the CDG is indeed acyclic.
//! * [`DependencyRule::AllowReascend`] — a *negative control* that admits
//!   the forbidden `r → r` connection (a message descending could ascend
//!   again). The CDG then contains cycles, demonstrating both why the rule
//!   exists and that the analysis is not vacuous.

use minnet_topology::equivalence::legal_successors;
use minnet_topology::{ChannelId, Endpoint, NetworkGraph, Side};

/// Which connection rules to admit when building the CDG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DependencyRule {
    /// The paper's legal connections (Fig. 2).
    Paper,
    /// Additionally allow the forbidden `r → r` (re-ascend) connection.
    AllowReascend,
}

/// Build the channel dependency graph: `adj[c]` lists the channels a worm
/// holding `c` may request next.
pub fn dependency_graph(net: &NetworkGraph, rule: DependencyRule) -> Vec<Vec<ChannelId>> {
    let mut adj = vec![Vec::new(); net.num_channels()];
    let mut buf = Vec::new();
    for c in 0..net.num_channels() as ChannelId {
        legal_successors(net, c, &mut buf);
        adj[c as usize].extend_from_slice(&buf);
        if rule == DependencyRule::AllowReascend && net.kind.is_bidirectional() {
            // Add r-input → r-output edges.
            if let Endpoint::Switch {
                sw,
                side: Side::Right,
                ..
            } = net.channel(c).dst
            {
                let k = net.geometry.k();
                adj[c as usize].extend(net.out_port_span(sw, k, 2 * k));
            }
        }
    }
    adj
}

/// Find a cycle in the dependency graph, returned as the channel sequence
/// `c_0 → c_1 → … → c_0`, or `None` if the graph is acyclic.
pub fn find_cycle(adj: &[Vec<ChannelId>]) -> Option<Vec<ChannelId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut mark = vec![Mark::White; adj.len()];
    let mut parent = vec![u32::MAX; adj.len()];
    for start in 0..adj.len() {
        if mark[start] != Mark::White {
            continue;
        }
        // Iterative DFS with an explicit edge stack.
        let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
        mark[start] = Mark::Gray;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v as usize].len() {
                let w = adj[v as usize][*i];
                *i += 1;
                match mark[w as usize] {
                    Mark::White => {
                        mark[w as usize] = Mark::Gray;
                        parent[w as usize] = v;
                        stack.push((w, 0));
                    }
                    Mark::Gray => {
                        // Found a back edge v → w: reconstruct the cycle.
                        let mut cycle = vec![w];
                        let mut cur = v;
                        while cur != w {
                            cycle.push(cur);
                            cur = parent[cur as usize];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Mark::Black => {}
                }
            } else {
                mark[v as usize] = Mark::Black;
                stack.pop();
            }
        }
    }
    None
}

/// The CDG of the network with `dead_channel` removed: dead channels keep
/// no outgoing edges and appear in no one's successor list. A subgraph of
/// an acyclic graph is acyclic, so masking can never *introduce* a cycle
/// — the fault-compilation path still runs [`find_cycle`] over this graph
/// as a belt-and-braces re-check each fault epoch, so a future routing
/// rule whose masked network deadlocks fails loudly at compile time.
pub fn masked_dependency_graph(
    net: &NetworkGraph,
    rule: DependencyRule,
    dead_channel: &[bool],
) -> Vec<Vec<ChannelId>> {
    let mut adj = dependency_graph(net, rule);
    for (c, succ) in adj.iter_mut().enumerate() {
        if dead_channel[c] {
            succ.clear();
        } else {
            succ.retain(|&s| !dead_channel[s as usize]);
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::{build_bmin, build_unidir, Geometry, UnidirKind};

    /// Whether the network's CDG under `rule` is acyclic (deadlock-free
    /// for any routing restricted to these connections).
    fn is_deadlock_free(net: &NetworkGraph, rule: DependencyRule) -> bool {
        find_cycle(&dependency_graph(net, rule)).is_none()
    }

    #[test]
    fn unidirectional_mins_are_acyclic() {
        for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
            for d in [1u8, 2] {
                let net = build_unidir(Geometry::new(4, 3), kind, d);
                assert!(is_deadlock_free(&net, DependencyRule::Paper));
            }
        }
    }

    #[test]
    fn bmin_turnaround_is_deadlock_free() {
        for g in [Geometry::new(2, 3), Geometry::new(4, 3), Geometry::new(2, 4)] {
            let net = build_bmin(g);
            assert!(is_deadlock_free(&net, DependencyRule::Paper), "{g:?}");
        }
    }

    #[test]
    fn forbidden_reascend_creates_cycles() {
        let net = build_bmin(Geometry::new(2, 3));
        let adj = dependency_graph(&net, DependencyRule::AllowReascend);
        let cycle = find_cycle(&adj).expect("r→r connections must create a CDG cycle");
        assert!(cycle.len() >= 2);
        // Verify it really is a cycle in the graph.
        for w in cycle.windows(2) {
            assert!(adj[w[0] as usize].contains(&w[1]));
        }
        assert!(adj[*cycle.last().unwrap() as usize].contains(&cycle[0]));
    }

    #[test]
    fn reascend_does_not_affect_unidirectional_graphs() {
        let net = build_unidir(Geometry::new(2, 3), UnidirKind::Cube, 1);
        assert!(is_deadlock_free(&net, DependencyRule::AllowReascend));
    }

    #[test]
    fn masked_cdg_stays_acyclic_and_drops_dead_edges() {
        let net = build_bmin(Geometry::new(4, 3));
        let mut dead = vec![false; net.num_channels()];
        dead[3] = true;
        dead[100] = true;
        let adj = masked_dependency_graph(&net, DependencyRule::Paper, &dead);
        assert!(adj[3].is_empty() && adj[100].is_empty());
        for succ in &adj {
            assert!(!succ.contains(&3) && !succ.contains(&100));
        }
        assert!(find_cycle(&adj).is_none());
        // Even a graph made cyclic by AllowReascend loses its cycles once
        // enough channels die.
        let all_dead = vec![true; net.num_channels()];
        let adj = masked_dependency_graph(&net, DependencyRule::AllowReascend, &all_dead);
        assert!(find_cycle(&adj).is_none());
    }

    #[test]
    fn find_cycle_on_handmade_graphs() {
        // Acyclic chain.
        assert_eq!(find_cycle(&[vec![1], vec![2], vec![]]), None);
        // Simple 3-cycle.
        let c = find_cycle(&[vec![1], vec![2], vec![0]]).unwrap();
        assert_eq!(c.len(), 3);
        // Self-loop.
        let s = find_cycle(&[vec![0]]).unwrap();
        assert_eq!(s, vec![0]);
        // Diamond (acyclic despite reconvergence).
        assert_eq!(find_cycle(&[vec![1, 2], vec![3], vec![3], vec![]]), None);
    }
}
