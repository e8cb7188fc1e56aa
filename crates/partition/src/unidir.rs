//! Channel-usage analysis for unidirectional MIN partitions.
//!
//! For every ordered intra-cluster pair we walk the unique destination-tag
//! path and record which wire position each connection level contributes.
//! From the per-cluster position sets we decide contention-freedom and
//! channel balance — mechanising Lemma 1, Theorems 2 and 3, and the Fig.
//! 14/15 examples.

use minnet_topology::unidir::unique_path_positions;
use minnet_topology::{Geometry, NodeAddr, UnidirKind};
use std::collections::BTreeSet;

/// Per-cluster, per-level channel usage of a unidirectional MIN.
#[derive(Clone, Debug)]
pub struct UnidirPartitionAnalysis {
    geometry: Geometry,
    kind: UnidirKind,
    cluster_sizes: Vec<usize>,
    /// `positions[c][level]` = wire positions used by cluster `c` at that
    /// connection level (`0ⁿ` through `n`).
    positions: Vec<Vec<BTreeSet<u32>>>,
}

impl UnidirPartitionAnalysis {
    /// Analyse intra-cluster traffic for the given clusters (member lists
    /// of node ids; clusters of fewer than two nodes contribute nothing).
    pub fn analyze(g: Geometry, kind: UnidirKind, clusters: &[Vec<u32>]) -> Self {
        let levels = (g.n() + 1) as usize;
        let mut positions =
            vec![vec![BTreeSet::new(); levels]; clusters.len()];
        for (ci, members) in clusters.iter().enumerate() {
            for &s in members {
                for &d in members {
                    if s == d {
                        continue;
                    }
                    for (level, pos) in
                        unique_path_positions(&g, kind, NodeAddr(s), NodeAddr(d))
                    {
                        positions[ci][level as usize].insert(pos);
                    }
                }
            }
        }
        UnidirPartitionAnalysis {
            geometry: g,
            kind,
            cluster_sizes: clusters.iter().map(Vec::len).collect(),
            positions,
        }
    }

    /// The analysed wiring.
    pub fn kind(&self) -> UnidirKind {
        self.kind
    }

    /// Number of channels cluster `c` uses at `level`.
    pub fn channels_used(&self, cluster: usize, level: u32) -> usize {
        self.positions[cluster][level as usize].len()
    }

    /// Positions used by two or more clusters, as `(level, position,
    /// clusters)` — empty iff the partitioning is contention-free.
    pub fn shared_positions(&self) -> Vec<(u32, u32, Vec<usize>)> {
        let mut shared = Vec::new();
        let levels = self.geometry.n() + 1;
        for level in 0..levels {
            let mut owner: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
            for (ci, per_level) in self.positions.iter().enumerate() {
                for &p in &per_level[level as usize] {
                    owner.entry(p).or_default().push(ci);
                }
            }
            for (p, cs) in owner {
                if cs.len() > 1 {
                    shared.push((level, p, cs));
                }
            }
        }
        shared
    }

    /// Whether no channel is used by two clusters.
    pub fn is_contention_free(&self) -> bool {
        self.shared_positions().is_empty()
    }

    /// Whether cluster `c` gets exactly `|c|` channels at every connection
    /// level (the paper's channel-balanced allocation).
    pub fn is_channel_balanced(&self, cluster: usize) -> bool {
        let size = self.cluster_sizes[cluster];
        if size < 2 {
            return true; // a singleton cluster sends no traffic
        }
        (0..=self.geometry.n())
            .all(|level| self.channels_used(cluster, level) == size)
    }
}

#[cfg(test)]
impl UnidirPartitionAnalysis {
    /// Levels at which cluster `c` has fewer channels than nodes — the
    /// "channel-reduced" degradation of Fig. 15a.
    fn reduced_levels(&self, cluster: usize) -> Vec<(u32, usize)> {
        let size = self.cluster_sizes[cluster];
        (0..=self.geometry.n())
            .filter_map(|level| {
                let used = self.channels_used(cluster, level);
                (used < size).then_some((level, used))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::{BitCube, CubeSpec};

    fn bitcube_clusters(g: &Geometry, patterns: &[&str]) -> Vec<Vec<u32>> {
        patterns
            .iter()
            .map(|p| {
                BitCube::parse(g, p)
                    .unwrap()
                    .members(g)
                    .into_iter()
                    .map(|a| a.0)
                    .collect()
            })
            .collect()
    }

    fn cube_clusters(g: &Geometry, patterns: &[&str]) -> Vec<Vec<u32>> {
        patterns
            .iter()
            .map(|p| {
                CubeSpec::parse(g, p)
                    .unwrap()
                    .members(g)
                    .into_iter()
                    .map(|a| a.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fig14_cube_min_binary_clusters() {
        // Fig. 14: 8-node cube MIN, clusters 0XX (4 nodes), 1X0, 1X1 (2
        // each): contention-free and channel-balanced.
        let g = Geometry::new(2, 3);
        let clusters = bitcube_clusters(&g, &["0XX", "1X0", "1X1"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Cube, &clusters);
        assert!(a.is_contention_free());
        for c in 0..3 {
            assert!(a.is_channel_balanced(c), "cluster {c}");
        }
        assert_eq!(a.channels_used(0, 1), 4);
        assert_eq!(a.channels_used(1, 2), 2);
    }

    #[test]
    fn theorem2_cube_min_exhaustive_binary_partitions() {
        // Every partition of the 8-node cube MIN into the 4+2+2 binary
        // cube shapes with one fixed bit + two fixed bits is contention-
        // free and balanced; spot-check several k=4 partitions too.
        let g = Geometry::new(2, 3);
        for big in ["0XX", "X0X", "XX0", "1XX", "X1X", "XX1"] {
            // Complement of `big` splits into two 2-node cubes by fixing
            // one more bit.
            let flip = |c: char| if c == '0' { '1' } else { '0' };
            let bigc: Vec<char> = big.chars().collect();
            let fixed_idx = bigc.iter().position(|&c| c != 'X').unwrap();
            let mut other: Vec<char> = bigc.clone();
            other[fixed_idx] = flip(bigc[fixed_idx]);
            let free_idx = (0..3).find(|&i| i != fixed_idx).unwrap();
            let mut c1: Vec<char> = other.clone();
            c1[free_idx] = '0';
            let mut c2: Vec<char> = other.clone();
            c2[free_idx] = '1';
            let pats: Vec<String> = vec![
                big.to_string(),
                c1.into_iter().collect(),
                c2.into_iter().collect(),
            ];
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let clusters = bitcube_clusters(&g, &refs);
            let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Cube, &clusters);
            assert!(a.is_contention_free(), "{pats:?}");
            for c in 0..3 {
                assert!(a.is_channel_balanced(c), "{pats:?} cluster {c}");
            }
        }
    }

    #[test]
    fn theorem2_k4_digit_cubes() {
        // The paper's cluster-16 partition 0XX..3XX on the 64-node cube
        // MIN: channel-balanced (16 channels per level per cluster).
        let g = Geometry::new(4, 3);
        let clusters = cube_clusters(&g, &["0XX", "1XX", "2XX", "3XX"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Cube, &clusters);
        assert!(a.is_contention_free());
        for c in 0..4 {
            assert!(a.is_channel_balanced(c));
            for level in 0..=3 {
                assert_eq!(a.channels_used(c, level), 16);
            }
        }
    }

    #[test]
    fn theorem2_nonbase_cube_also_works_on_cube_min() {
        // A cube cluster with free digits in *any* position partitions the
        // cube MIN cleanly — e.g. X1X / X0X on 8 nodes.
        let g = Geometry::new(2, 3);
        let clusters = bitcube_clusters(&g, &["X1X", "X0X"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Cube, &clusters);
        assert!(a.is_contention_free());
        assert!(a.is_channel_balanced(0));
        assert!(a.is_channel_balanced(1));
    }

    #[test]
    fn fig15a_butterfly_channel_reduced() {
        // Fig. 15a: butterfly MIN with clusters 0XX, 10X, 11X is
        // contention-free but the channel count drops below the cluster
        // size at some stages.
        let g = Geometry::new(2, 3);
        let clusters = bitcube_clusters(&g, &["0XX", "10X", "11X"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Butterfly, &clusters);
        assert!(a.is_contention_free());
        // The 4-node cluster is reduced to 2 channels somewhere ("the
        // number of channels is reduced to half in some stages").
        let reduced = a.reduced_levels(0);
        assert!(!reduced.is_empty());
        assert!(reduced.iter().any(|&(_, used)| used == 2));
        assert!(!a.is_channel_balanced(0));
    }

    #[test]
    fn fig15b_butterfly_channel_shared() {
        // Fig. 15b: clusters XX0 and XX1 share channels ("both clusters
        // share the use of eight channels").
        let g = Geometry::new(2, 3);
        let clusters = bitcube_clusters(&g, &["XX0", "XX1"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Butterfly, &clusters);
        assert!(!a.is_contention_free());
        let shared = a.shared_positions();
        // All eight wire positions are shared at each of the two interior
        // connection levels (the paper counts one level: "both clusters
        // share the use of eight channels").
        for level in [1u32, 2] {
            assert_eq!(
                shared.iter().filter(|&&(l, _, _)| l == level).count(),
                8,
                "shared at level {level}: {shared:?}"
            );
        }
        assert_eq!(shared.len(), 16);
    }

    #[test]
    fn theorem3_butterfly_cluster16_is_reduced() {
        // The evaluation's channel-reduced clustering: 0XX..3XX on the
        // 64-node butterfly MIN — 16-node clusters squeezed to 4 channels.
        let g = Geometry::new(4, 3);
        let clusters = cube_clusters(&g, &["0XX", "1XX", "2XX", "3XX"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Butterfly, &clusters);
        assert!(a.is_contention_free());
        let reduced = a.reduced_levels(0);
        assert!(reduced.iter().any(|&(_, used)| used == 4),
            "expected a 16→4 reduction, got {reduced:?}");
    }

    #[test]
    fn theorem3_butterfly_cluster16_shared() {
        // The channel-shared clustering XX0..XX3: clusters overlap on many
        // channels ("the number of channels is increased from 16 to 64").
        let g = Geometry::new(4, 3);
        let clusters = cube_clusters(&g, &["XX0", "XX1", "XX2", "XX3"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Butterfly, &clusters);
        assert!(!a.is_contention_free());
        // Each cluster spreads over all 64 channels at some level.
        let max_used = (0..=3)
            .map(|l| a.channels_used(0, l))
            .max()
            .unwrap();
        assert_eq!(max_used, 64);
    }

    #[test]
    fn butterfly_lsd_clusters_on_cube_min_are_not_balanced() {
        // The partitionability is a property of the *wiring*, not of the
        // clusters: LSD-fixed clusters misbehave on the cube MIN too
        // (they are k-ary cubes, so they stay contention-free by Lemma 1,
        // but the free-digit positions still shuffle channel counts
        // around — verify they remain balanced, per Lemma 1's full claim).
        let g = Geometry::new(4, 3);
        let clusters = cube_clusters(&g, &["XX0", "XX1", "XX2", "XX3"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Cube, &clusters);
        assert!(a.is_contention_free());
        for c in 0..4 {
            assert!(a.is_channel_balanced(c));
        }
    }

    #[test]
    fn sec6_omega_partitions_like_the_cube() {
        // §6: "the Omega network and the cube network have the same
        // network partitionability" — binary cubes stay contention-free
        // and channel-balanced.
        let g = Geometry::new(2, 3);
        let clusters = bitcube_clusters(&g, &["0XX", "1X0", "1X1"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Omega, &clusters);
        assert!(a.is_contention_free());
        for c in 0..3 {
            assert!(a.is_channel_balanced(c), "cluster {c}");
        }
        // And the k=4 cluster-16 partition.
        let g4 = Geometry::new(4, 3);
        let c16 = cube_clusters(&g4, &["0XX", "1XX", "2XX", "3XX"]);
        let a4 = UnidirPartitionAnalysis::analyze(g4, UnidirKind::Omega, &c16);
        assert!(a4.is_contention_free());
        for c in 0..4 {
            assert!(a4.is_channel_balanced(c));
        }
    }

    #[test]
    fn sec6_baseline_partitions_like_the_butterfly() {
        // §6: "the baseline network and the butterfly network have a
        // similar network partitionability" — MSD-fixed clusters lose
        // channels (channel-reduced), exactly as in Fig. 15a.
        let g = Geometry::new(4, 3);
        let clusters = cube_clusters(&g, &["0XX", "1XX", "2XX", "3XX"]);
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Baseline, &clusters);
        assert!(
            !(0..4).all(|c| a.is_channel_balanced(c)),
            "baseline must not be channel-balanced for MSD clusters"
        );
        let reduced = a.reduced_levels(0);
        assert!(
            reduced.iter().any(|&(_, used)| used < 16),
            "expected a channel reduction, got {reduced:?}"
        );
    }

    #[test]
    fn singleton_clusters_are_trivially_fine() {
        let g = Geometry::new(2, 3);
        let clusters: Vec<Vec<u32>> = (0..8).map(|n| vec![n]).collect();
        let a = UnidirPartitionAnalysis::analyze(g, UnidirKind::Butterfly, &clusters);
        assert!(a.is_contention_free());
        for c in 0..8 {
            assert!(a.is_channel_balanced(c));
            assert_eq!(a.channels_used(c, 0), 0);
        }
    }
}
