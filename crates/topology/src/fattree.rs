//! The fat-tree view of a butterfly BMIN (paper §3.3, Fig. 13).
//!
//! A butterfly BMIN with turnaround routing *is* a fat tree: processors are
//! the leaves, and the fat-tree **vertex** at level `j` is the set of stage-`j`
//! switches that serve the same leaf group — switches `(j, s)` whose labels
//! agree on digits `≥ j` (digits `< j` are free, so a vertex contains `k^j`
//! switches). Routing a message is "send up to the least common ancestor,
//! then down": the LCA level of `S` and `D` is exactly
//! `FirstDifference(S, D)`.

use crate::address::{Geometry, NodeAddr};

/// A fat-tree vertex: level plus the shared high digits of its switches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FatVertex {
    /// Tree level = BMIN stage (0 = adjacent to the leaves).
    pub level: u32,
    /// The common value of label digits `level .. n-2`, packed as an
    /// integer (0 when `level == n-1`, the root).
    pub high: u32,
}

/// Fat-tree structure queries for an `N = k^n` butterfly BMIN.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeView {
    g: Geometry,
}

impl FatTreeView {
    /// View the BMIN of geometry `g` as a fat tree.
    pub fn new(g: Geometry) -> Self {
        FatTreeView { g }
    }

    /// Number of fat-tree vertices at `level`: `k^{n-1-level}`.
    pub fn vertices_at(&self, level: u32) -> u32 {
        assert!(level < self.g.n());
        self.g.kpow(self.g.n() - 1 - level)
    }

    /// The vertex containing switch `(stage, label)`.
    pub fn vertex_of_switch(&self, stage: u32, label: u32) -> FatVertex {
        assert!(stage < self.g.n());
        let high = label / self.g.kpow(stage);
        FatVertex { level: stage, high }
    }

    /// The vertex that is node `a`'s ancestor at `level`.
    pub fn ancestor(&self, a: NodeAddr, level: u32) -> FatVertex {
        assert!(level < self.g.n());
        // Label digits i (>= level) must equal a_{i+1}: high = a >> (level+1) digits.
        let high = a.0 / self.g.kpow(level + 1);
        FatVertex { level, high }
    }

    /// Number of switches grouped into one vertex at `level`: `k^level`.
    pub fn switches_per_vertex(&self, level: u32) -> u32 {
        self.g.kpow(level)
    }

    /// Leaves (nodes) of the subtree rooted at `v`: `k^{level+1}` nodes.
    pub fn leaves(&self, v: FatVertex) -> Vec<u32> {
        let span = self.g.kpow(v.level + 1);
        (v.high * span..(v.high + 1) * span).collect()
    }

    /// Number of upward (parent) link pairs leaving vertex `v` — equal to
    /// the number of leaves in its subtree (the defining fat-tree
    /// property quoted in §3.3). The root has none.
    pub fn parent_links(&self, v: FatVertex) -> u32 {
        if v.level == self.g.n() - 1 {
            0
        } else {
            self.g.kpow(v.level + 1)
        }
    }

    /// The least common ancestor vertex of two distinct leaves; its level
    /// is `FirstDifference(S, D)`.
    pub fn lca(&self, s: NodeAddr, d: NodeAddr) -> Option<FatVertex> {
        let t = self.g.first_difference(s, d)?;
        Some(self.ancestor(s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmin::down_reachable;

    #[test]
    fn vertex_counts_form_a_tree() {
        let g = Geometry::new(2, 4); // 16-node fat tree (Fig. 13b)
        let ft = FatTreeView::new(g);
        assert_eq!(ft.vertices_at(0), 8);
        assert_eq!(ft.vertices_at(1), 4);
        assert_eq!(ft.vertices_at(2), 2);
        assert_eq!(ft.vertices_at(3), 1); // root
    }

    #[test]
    fn parent_links_equal_leaf_count() {
        let g = Geometry::new(2, 4);
        let ft = FatTreeView::new(g);
        for level in 0..3 {
            for high in 0..ft.vertices_at(level) {
                let v = FatVertex { level, high };
                assert_eq!(ft.parent_links(v), ft.leaves(v).len() as u32);
            }
        }
        let root = FatVertex { level: 3, high: 0 };
        assert_eq!(ft.parent_links(root), 0);
        assert_eq!(ft.leaves(root).len(), 16);
    }

    #[test]
    fn lca_level_is_first_difference() {
        for g in [Geometry::new(2, 3), Geometry::new(4, 3), Geometry::new(2, 4)] {
            let ft = FatTreeView::new(g);
            for s in g.addresses() {
                for d in g.addresses() {
                    match ft.lca(s, d) {
                        None => assert_eq!(s, d),
                        Some(v) => {
                            assert_eq!(Some(v.level), g.first_difference(s, d));
                            // Both leaves are in the LCA's subtree …
                            let leaves = ft.leaves(v);
                            assert!(leaves.contains(&s.0));
                            assert!(leaves.contains(&d.0));
                            // … but in different child subtrees.
                            if v.level > 0 {
                                assert_ne!(
                                    ft.ancestor(s, v.level - 1),
                                    ft.ancestor(d, v.level - 1)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn vertices_group_switches_with_same_leaf_set() {
        // All switches in a vertex down-reach exactly the vertex's leaves.
        let g = Geometry::new(2, 4);
        let ft = FatTreeView::new(g);
        for stage in 0..g.n() {
            for label in 0..g.kpow(g.n() - 1) {
                let v = ft.vertex_of_switch(stage, label);
                assert_eq!(down_reachable(&g, stage, label), ft.leaves(v));
            }
        }
    }

    #[test]
    fn subnetwork_partition_example() {
        // Fig. 13: subnetworks "A", "B", "C" of the 16-node BMIN correspond
        // to subtrees. The two level-2 vertices split the leaves 0..7 and
        // 8..15.
        let g = Geometry::new(2, 4);
        let ft = FatTreeView::new(g);
        let a = FatVertex { level: 2, high: 0 };
        let b = FatVertex { level: 2, high: 1 };
        assert_eq!(ft.leaves(a), (0..8).collect::<Vec<_>>());
        assert_eq!(ft.leaves(b), (8..16).collect::<Vec<_>>());
        assert_eq!(ft.switches_per_vertex(2), 4);
    }
}
