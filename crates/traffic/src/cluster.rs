//! Node clustering (§4, §5.1).
//!
//! Processor clusters model space-shared jobs: each node belongs to exactly
//! one cluster, and (for the uniform and hot-spot patterns) destinations
//! are drawn within the source's cluster. Clusters are specified either as
//! digit-level k-ary cubes or as binary cubes; the paper's 64-node
//! evaluation uses the four 16-node clusters `0XX … 3XX` (channel-balanced
//! for the cube MIN, channel-reduced for the butterfly) and `XX0 … XX3`
//! (channel-shared for the butterfly).

use minnet_topology::{BitCube, CubeSpec, Geometry, NodeId};

/// How the nodes are grouped.
#[derive(Clone, Debug)]
pub enum Clustering {
    /// One cluster containing every node.
    Global,
    /// Digit-level k-ary cubes; must partition the node set.
    Cubes(Vec<CubeSpec>),
    /// Bit-level binary cubes; must partition the node set.
    BitCubes(Vec<BitCube>),
}

impl Clustering {
    /// Number of clusters, without resolving their members.
    pub(crate) fn count(&self) -> usize {
        match self {
            Clustering::Global => 1,
            Clustering::Cubes(cubes) => cubes.len(),
            Clustering::BitCubes(cubes) => cubes.len(),
        }
    }

    /// Parse a list of digit patterns like `["0XX", "1XX"]`.
    pub fn cubes_from_patterns(g: &Geometry, patterns: &[&str]) -> Result<Clustering, String> {
        let cubes = patterns
            .iter()
            .map(|p| CubeSpec::parse(g, p).ok_or_else(|| format!("bad cube pattern {p:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Clustering::Cubes(cubes))
    }
}

/// A resolved clustering: each cluster's members, in increasing order,
/// and each node's cluster. The one cluster of [`Clustering::Global`] is
/// its node count alone — its index is 0 and its member `i` is node `i` —
/// so a global workload holds no per-node array.
#[derive(Clone, Debug)]
pub struct ClusterMap {
    repr: Map,
}

#[derive(Clone, Debug)]
enum Map {
    /// Every node of `0..nodes` in cluster 0.
    Global { nodes: u32 },
    /// `members[c]` lists the nodes of cluster `c`, in increasing order;
    /// `cluster_of[node]` gives the node's cluster index.
    Listed {
        members: Vec<Vec<NodeId>>,
        cluster_of: Vec<u32>,
    },
}

impl ClusterMap {
    /// Resolve a clustering over geometry `g`.
    ///
    /// # Errors
    ///
    /// Fails unless the clusters are pairwise disjoint and jointly cover
    /// every node.
    pub fn build(g: &Geometry, clustering: &Clustering) -> Result<ClusterMap, String> {
        let n = g.nodes();
        let members: Vec<Vec<NodeId>> = match clustering {
            Clustering::Global => return Ok(ClusterMap { repr: Map::Global { nodes: n } }),
            Clustering::Cubes(cubes) => cubes
                .iter()
                .map(|c| c.members(g).into_iter().map(|a| a.0).collect())
                .collect(),
            Clustering::BitCubes(cubes) => cubes
                .iter()
                .map(|c| c.members(g).into_iter().map(|a| a.0).collect())
                .collect(),
        };
        let mut cluster_of = vec![u32::MAX; n as usize];
        for (ci, ms) in members.iter().enumerate() {
            for &m in ms {
                if cluster_of[m as usize] != u32::MAX {
                    return Err(format!("node {m} belongs to two clusters"));
                }
                cluster_of[m as usize] = ci as u32;
            }
        }
        if let Some(orphan) = cluster_of.iter().position(|&c| c == u32::MAX) {
            return Err(format!("node {orphan} belongs to no cluster"));
        }
        Ok(ClusterMap { repr: Map::Listed { members, cluster_of } })
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        match &self.repr {
            Map::Global { .. } => 1,
            Map::Listed { members, .. } => members.len(),
        }
    }

    /// Whether there are no clusters (never true for a valid map).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cluster index of a node.
    #[inline]
    pub fn cluster_of(&self, node: NodeId) -> u32 {
        match &self.repr {
            Map::Global { .. } => 0,
            Map::Listed { cluster_of, .. } => cluster_of[node as usize],
        }
    }

    /// Number of nodes in cluster `c`.
    #[inline]
    pub fn size(&self, c: u32) -> usize {
        match &self.repr {
            Map::Global { nodes } => *nodes as usize,
            Map::Listed { members, .. } => members[c as usize].len(),
        }
    }

    /// The `i`-th smallest node of cluster `c`.
    #[inline]
    pub fn member(&self, c: u32, i: usize) -> NodeId {
        match &self.repr {
            Map::Global { .. } => i as NodeId,
            Map::Listed { members, .. } => members[c as usize][i],
        }
    }

    /// The nodes of cluster `c`, in increasing order.
    pub fn members(&self, c: u32) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.size(c)).map(move |i| self.member(c, i))
    }
}

#[cfg(test)]
impl ClusterMap {
    /// Heap bytes held: nothing for the global cluster, else the member
    /// lists and the node → cluster array.
    pub(crate) fn approx_bytes(&self) -> usize {
        match &self.repr {
            Map::Global { .. } => 0,
            Map::Listed { members, cluster_of } => {
                let lists = members.iter().map(|m| m.capacity() * 4).sum::<usize>();
                let table = members.capacity() * std::mem::size_of::<Vec<NodeId>>();
                lists + table + cluster_of.capacity() * 4
            }
        }
    }

    /// The cluster-32 partition (two binary cubes splitting on the most
    /// significant address bit); requires `k` to be a power of two.
    pub fn cluster32(g: &Geometry) -> Result<ClusterMap, String> {
        if !g.k().is_power_of_two() {
            return Err("cluster-32 needs k to be a power of two".into());
        }
        let j = g.k().trailing_zeros();
        let nbits = g.n() * j;
        let top = 1u32 << (nbits - 1);
        let lo = BitCube::new(g, top, 0);
        let hi = BitCube::new(g, top, top);
        ClusterMap::build(g, &Clustering::BitCubes(vec![lo, hi]))
    }

    /// The paper's cluster-16 partition for the 64-node, k=4 system:
    /// `0XX, 1XX, 2XX, 3XX` (channel-balanced on the cube MIN,
    /// channel-reduced on the butterfly MIN).
    fn cluster16_msd(g: &Geometry) -> Result<ClusterMap, String> {
        let patterns: Vec<String> = (0..g.k())
            .map(|v| {
                let mut s = v.to_string();
                s.extend(std::iter::repeat_n('X', g.n() as usize - 1));
                s
            })
            .collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let clustering = Clustering::cubes_from_patterns(g, &refs)?;
        ClusterMap::build(g, &clustering)
    }

    /// The paper's channel-shared clustering for the butterfly MIN:
    /// `XX0, XX1, XX2, XX3` (least-significant digit fixed).
    fn cluster16_lsd(g: &Geometry) -> Result<ClusterMap, String> {
        let patterns: Vec<String> = (0..g.k())
            .map(|v| {
                let mut s: String = std::iter::repeat_n('X', g.n() as usize - 1).collect();
                s.push_str(&v.to_string());
                s
            })
            .collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let clustering = Clustering::cubes_from_patterns(g, &refs)?;
        ClusterMap::build(g, &clustering)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_one_cluster() {
        let g = Geometry::new(4, 3);
        let m = ClusterMap::build(&g, &Clustering::Global).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.members(0).collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
        assert_eq!(m.cluster_of(17), 0);
        assert_eq!(m.approx_bytes(), 0, "the global cluster holds no per-node array");
    }

    #[test]
    fn paper_cluster16_partitions() {
        let g = Geometry::new(4, 3);
        let msd = ClusterMap::cluster16_msd(&g).unwrap();
        assert_eq!(msd.len(), 4);
        for c in 0..4 {
            assert_eq!(msd.size(c), 16);
        }
        // 0XX = nodes 0..16, 3XX = nodes 48..64.
        assert_eq!(msd.members(0).collect::<Vec<_>>(), (0..16).collect::<Vec<_>>());
        assert_eq!(msd.cluster_of(50), 3);

        let lsd = ClusterMap::cluster16_lsd(&g).unwrap();
        assert_eq!(lsd.len(), 4);
        // XX0 = nodes ≡ 0 mod 4.
        assert_eq!(lsd.members(0).collect::<Vec<_>>(), (0..64).step_by(4).collect::<Vec<_>>());
        assert_eq!(lsd.cluster_of(7), 3);
    }

    #[test]
    fn cluster32_halves() {
        let g = Geometry::new(4, 3);
        let m = ClusterMap::cluster32(&g).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.members(0).collect::<Vec<_>>(), (0..32).collect::<Vec<_>>());
        assert_eq!(m.members(1).collect::<Vec<_>>(), (32..64).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_overlap_and_gaps() {
        let g = Geometry::new(4, 3);
        let overlapping =
            Clustering::cubes_from_patterns(&g, &["0XX", "0XX", "1XX", "2XX", "3XX"]).unwrap();
        assert!(ClusterMap::build(&g, &overlapping).is_err());
        let gappy = Clustering::cubes_from_patterns(&g, &["0XX", "1XX"]).unwrap();
        assert!(ClusterMap::build(&g, &gappy).is_err());
    }

    #[test]
    fn bad_pattern_reported() {
        let g = Geometry::new(4, 3);
        assert!(Clustering::cubes_from_patterns(&g, &["5XX"]).is_err());
    }
}
