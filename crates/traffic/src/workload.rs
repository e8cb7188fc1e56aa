//! The compiled workload the simulation engine consumes.
//!
//! A [`WorkloadSpec`] describes a §5 experiment declaratively: offered
//! load, destination pattern, clustering with optional per-cluster rate
//! ratios, and message sizes. [`Workload::compile`] resolves it against a
//! geometry into message rates and destination samplers — one a
//! *cluster*: every member of a cluster shares its rate and, under the
//! uniform and hot-spot patterns, its sampler, so a node's are found
//! through the cluster map and nothing but that map (and a permutation
//! pattern's destination table) grows with the node count.
//!
//! **Load normalisation.** `offered_load` is in flits per cycle per node,
//! averaged over *all* nodes (1.0 saturates the one-port injection
//! channels). With cluster rate ratios `r_c`, node `i` in cluster `c`
//! generates at `ρ_i = load · r_c · N / Σ_c r_c |C_c|`, so the ratio
//! `1:0:0:0` over four 16-node clusters drives the active cluster at four
//! times the nominal load while the network-wide average stays `load`
//! (this is why that ratio caps at 25% delivered throughput in Fig. 17b).

use crate::cluster::{ClusterMap, Clustering};
use crate::pattern::{hot_spot_probabilities, TrafficPattern};
use crate::size::MessageSizeDist;
use minnet_topology::{Geometry, NodeAddr, NodeId};
use rand::{Rng, RngExt};
use std::sync::Arc;

/// Declarative description of a workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Offered load in flits/cycle/node, averaged over all nodes.
    pub offered_load: f64,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Node clustering (destination scope for uniform/hot-spot patterns).
    pub clustering: Clustering,
    /// Relative traffic rates per cluster (the §5.2 `a:b:c:d` ratios);
    /// `None` means equal rates. Length must match the cluster count.
    pub rates: Option<Vec<f64>>,
    /// Message-length distribution.
    pub sizes: MessageSizeDist,
}

impl WorkloadSpec {
    /// A global uniform workload with the paper's message sizes.
    pub fn global_uniform(offered_load: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_load,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::PAPER,
        }
    }
}

/// How destinations are drawn. A node with nobody to send to — alone in
/// its cluster, or a fixed point of the permutation — is *silent*: its
/// message rate is 0 and no destination may be asked of it.
#[derive(Clone, Debug)]
enum DestSampler {
    /// Uniform over the source's cluster members, skipping the source.
    Uniform,
    /// Hot-spot within the source's cluster: `p_hot` by cluster.
    HotSpot(Vec<f64>),
    /// Permutation patterns: the destination by source node.
    Fixed(Vec<NodeId>),
}

/// A compiled workload: what each node sends, to whom, and how often.
///
/// The destination sampler and cluster map are shared (`Arc`) with the
/// [`WorkloadTemplate`] that produced them, so instantiating the same
/// experiment at another load computes only the per-cluster rates.
#[derive(Clone, Debug)]
pub struct Workload {
    geometry: Geometry,
    clusters: Arc<ClusterMap>,
    sizes: MessageSizeDist,
    offered_load: f64,
    /// Message rate of a cluster's members, messages/cycle (0 for a
    /// cluster of one).
    cluster_rate: Vec<f64>,
    sampler: Arc<DestSampler>,
}

/// The load-independent part of a compiled workload: destination sampler,
/// cluster structure, per-cluster rate weights, and the size distribution.
///
/// A sweep compiles the template **once** and calls
/// [`WorkloadTemplate::workload_at`] per load point; the instantiation is
/// a handful of multiplications and produces a [`Workload`] bit-identical
/// (every `f64` down to its bit pattern) to what [`Workload::compile`]
/// would build from scratch at that load — `compile` is itself a thin
/// wrapper over this type, so there is only one code path to trust.
#[derive(Clone, Debug)]
pub struct WorkloadTemplate {
    geometry: Geometry,
    clusters: Arc<ClusterMap>,
    sizes: MessageSizeDist,
    sampler: Arc<DestSampler>,
    /// Per-cluster relative rate weight (the cluster's ratio entry; 0
    /// for a cluster whose one node has nobody to talk to).
    cluster_weight: Vec<f64>,
    /// Σ_c r_c |C_c| — the load-normalisation denominator.
    weighted: f64,
    mean_len: f64,
}

impl WorkloadTemplate {
    /// Compile everything about `spec` that does not depend on
    /// `spec.offered_load` (which is ignored here and supplied to
    /// [`WorkloadTemplate::workload_at`] instead).
    ///
    /// # Errors
    ///
    /// Reports malformed clusterings, rate/cluster count mismatches, and
    /// permutation indices out of range.
    pub fn compile(g: Geometry, spec: &WorkloadSpec) -> Result<WorkloadTemplate, String> {
        spec.pattern.validate()?;
        spec.sizes.validate()?;
        let clusters = ClusterMap::build(&g, &spec.clustering)?;
        let ncl = clusters.len();
        let mut rates: Vec<f64> = match &spec.rates {
            None => vec![1.0; ncl],
            Some(r) => {
                if r.len() != ncl {
                    return Err(format!(
                        "{} rate entries for {} clusters",
                        r.len(),
                        ncl
                    ));
                }
                if r.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                    return Err("cluster rates must be nonnegative".into());
                }
                if r.iter().sum::<f64>() <= 0.0 {
                    return Err("at least one cluster rate must be positive".into());
                }
                r.clone()
            }
        };

        // Normalise: Σ_c r_c |C_c| · scale = load · N.
        let weighted: f64 = rates
            .iter()
            .zip(&clusters.members)
            .map(|(r, m)| r * m.len() as f64)
            .sum();
        let mean_len = spec.sizes.mean();

        let sizes = clusters.members.iter().map(Vec::len);
        let sampler = match spec.pattern {
            TrafficPattern::Uniform => DestSampler::Uniform,
            TrafficPattern::HotSpot { extra } => {
                DestSampler::HotSpot(sizes.clone().map(|n| hot_spot_probabilities(n, extra).0).collect())
            }
            TrafficPattern::Permutation(p) => {
                if let minnet_topology::Perm::Butterfly(i) = p {
                    if i >= g.n() {
                        return Err(format!("butterfly index {i} out of range"));
                    }
                }
                DestSampler::Fixed((0..g.nodes()).map(|a| p.apply(&g, NodeAddr(a)).0).collect())
            }
        };
        if !matches!(sampler, DestSampler::Fixed(_)) {
            // Within-cluster patterns: a cluster of one is silent.
            for (rate, _) in rates.iter_mut().zip(sizes).filter(|&(_, n)| n < 2) {
                *rate = 0.0;
            }
        }

        Ok(WorkloadTemplate {
            geometry: g,
            clusters: Arc::new(clusters),
            sizes: spec.sizes,
            sampler: Arc::new(sampler),
            cluster_weight: rates,
            weighted,
            mean_len,
        })
    }

    /// The geometry this template was compiled for.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Instantiate a [`Workload`] at the given offered load
    /// (flits/cycle/node, averaged over all nodes).
    ///
    /// # Errors
    ///
    /// Reports non-positive or non-finite loads.
    pub fn workload_at(&self, offered_load: f64) -> Result<Workload, String> {
        if offered_load <= 0.0 || !offered_load.is_finite() {
            return Err(format!("offered load must be positive, got {offered_load}"));
        }
        let n = self.geometry.nodes() as usize;
        let scale = offered_load * n as f64 / self.weighted;
        let rate = |weight: &f64| {
            let flit_rate = weight * scale;
            if flit_rate > 0.0 { flit_rate / self.mean_len } else { 0.0 }
        };
        Ok(Workload {
            geometry: self.geometry,
            clusters: Arc::clone(&self.clusters),
            sizes: self.sizes,
            offered_load,
            cluster_rate: self.cluster_weight.iter().map(rate).collect(),
            sampler: Arc::clone(&self.sampler),
        })
    }
}

impl Workload {
    /// Compile a spec against a geometry — equivalent to
    /// [`WorkloadTemplate::compile`] followed by
    /// [`WorkloadTemplate::workload_at`] at `spec.offered_load` (it *is*
    /// that, so the per-load fast path cannot drift from this one).
    ///
    /// # Errors
    ///
    /// Reports invalid loads, malformed clusterings, rate/cluster count
    /// mismatches, and permutation indices out of range.
    pub fn compile(g: Geometry, spec: &WorkloadSpec) -> Result<Workload, String> {
        if spec.offered_load <= 0.0 || !spec.offered_load.is_finite() {
            return Err(format!("offered load must be positive, got {}", spec.offered_load));
        }
        WorkloadTemplate::compile(g, spec)?.workload_at(spec.offered_load)
    }

    /// The geometry this workload was compiled for.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The nominal offered load (flits/cycle/node).
    pub fn offered_load(&self) -> f64 {
        self.offered_load
    }

    /// The resolved cluster map.
    pub fn clusters(&self) -> &ClusterMap {
        &self.clusters
    }

    /// Message generation rate of `node` in messages/cycle; `0.0` means
    /// the node is silent.
    #[inline]
    pub fn message_rate(&self, node: NodeId) -> f64 {
        match &*self.sampler {
            DestSampler::Fixed(to) if to[node as usize] == node => 0.0,
            _ => self.cluster_rate[self.clusters.cluster_of(node) as usize],
        }
    }

    /// Mean message length in flits.
    pub fn mean_length(&self) -> f64 {
        self.sizes.mean()
    }

    /// Draw a message length.
    pub fn draw_length<R: Rng>(&self, rng: &mut R) -> u32 {
        self.sizes.draw(rng)
    }

    /// Draw a destination for a message from `node`. Never returns `node`
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics if the node is silent (`message_rate(node) == 0.0` — the
    /// engine must not ask).
    pub fn draw_destination<R: Rng>(&self, node: NodeId, rng: &mut R) -> NodeId {
        let talks = |peers: bool| assert!(peers, "destination requested for silent node {node}");
        let cluster = self.clusters.cluster_of(node) as usize;
        let members = &self.clusters.members[cluster];
        match &*self.sampler {
            DestSampler::Fixed(to) => {
                talks(to[node as usize] != node);
                to[node as usize]
            }
            DestSampler::Uniform => {
                talks(members.len() > 1);
                loop {
                    let d = members[rng.random_range(0..members.len())];
                    if d != node {
                        return d;
                    }
                }
            }
            DestSampler::HotSpot(p_hot) => {
                talks(members.len() > 1);
                let (hot, p_hot) = (members[0], p_hot[cluster]);
                loop {
                    let d = if rng.random::<f64>() < p_hot {
                        hot
                    } else {
                        // Uniform over the non-hot members.
                        members[1 + rng.random_range(0..members.len() - 1)]
                    };
                    if d != node {
                        return d;
                    }
                }
            }
        }
    }

    /// Aggregate nominal flit-injection rate over all nodes (flits/cycle),
    /// accounting for silent nodes.
    pub fn aggregate_flit_rate(&self) -> f64 {
        let nodes = 0..self.geometry.nodes();
        nodes.map(|node| self.message_rate(node)).sum::<f64>() * self.mean_length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::Perm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn g64() -> Geometry {
        Geometry::new(4, 3)
    }

    #[test]
    fn global_uniform_rates() {
        let w = Workload::compile(g64(), &WorkloadSpec::global_uniform(0.5)).unwrap();
        for node in 0..64 {
            assert!((w.message_rate(node) - 0.5 / 516.0).abs() < 1e-12);
        }
        assert!((w.aggregate_flit_rate() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_never_draws_self_and_stays_in_cluster() {
        let g = g64();
        let spec = WorkloadSpec {
            offered_load: 0.3,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::cubes_from_patterns(&g, &["0XX", "1XX", "2XX", "3XX"])
                .unwrap(),
            rates: None,
            sizes: MessageSizeDist::PAPER,
        };
        let w = Workload::compile(g, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        for src in [0u32, 17, 35, 63] {
            for _ in 0..500 {
                let d = w.draw_destination(src, &mut rng);
                assert_ne!(d, src);
                assert_eq!(d / 16, src / 16, "destination left the cluster");
            }
        }
    }

    #[test]
    fn rate_ratios_follow_paper_normalisation() {
        let g = g64();
        let spec = WorkloadSpec {
            offered_load: 0.4,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::cubes_from_patterns(&g, &["0XX", "1XX", "2XX", "3XX"])
                .unwrap(),
            rates: Some(vec![4.0, 1.0, 1.0, 1.0]),
            sizes: MessageSizeDist::Fixed(100),
        };
        let w = Workload::compile(g, &spec).unwrap();
        // scale = 0.4·64 / (16·7) = 0.4·4/7; cluster 0 nodes: 4×, others 1×.
        let hi = w.message_rate(0) * 100.0;
        let lo = w.message_rate(20) * 100.0;
        assert!((hi / lo - 4.0).abs() < 1e-9);
        assert!((hi - 0.4 * 16.0 / 7.0).abs() < 1e-9);
        // To the bit: weight × scale, then / mean length, in that order.
        let scale: f64 = 0.4 * 64.0 / (16.0 * 7.0);
        assert_eq!(w.message_rate(0).to_bits(), (4.0 * scale / 100.0).to_bits());
        assert_eq!(w.message_rate(20).to_bits(), (1.0 * scale / 100.0).to_bits());
        // Average over all nodes is the nominal load.
        assert!((w.aggregate_flit_rate() / 64.0 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_cluster_is_silent() {
        let g = g64();
        let spec = WorkloadSpec {
            offered_load: 0.4,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::cubes_from_patterns(&g, &["0XX", "1XX", "2XX", "3XX"])
                .unwrap(),
            rates: Some(vec![1.0, 0.0, 0.0, 0.0]),
            sizes: MessageSizeDist::PAPER,
        };
        let w = Workload::compile(g, &spec).unwrap();
        assert!(w.message_rate(0) > 0.0);
        assert_eq!(w.message_rate(16), 0.0);
        assert_eq!(w.message_rate(63), 0.0);
        // Cluster 0 runs at 4× nominal.
        assert!((w.message_rate(0) * 516.0 - 1.6).abs() < 1e-9);
    }

    #[test]
    fn hot_spot_frequencies() {
        let g = g64();
        let spec = WorkloadSpec {
            offered_load: 0.3,
            pattern: TrafficPattern::HotSpot { extra: 0.10 },
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::PAPER,
        };
        let w = Workload::compile(g, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let trials = 60_000;
        let mut hot_hits = 0;
        for _ in 0..trials {
            // Source 5 (not the hot node 0).
            if w.draw_destination(5, &mut rng) == 0 {
                hot_hits += 1;
            }
        }
        let (p_hot, _) = hot_spot_probabilities(64, 0.10);
        let frac = hot_hits as f64 / trials as f64;
        assert!((frac - p_hot).abs() < 0.01, "hot frac {frac} vs {p_hot}");
    }

    #[test]
    fn permutation_pattern_fixed_destinations_and_fixed_points() {
        let g = g64();
        let spec = WorkloadSpec {
            offered_load: 0.3,
            pattern: TrafficPattern::Permutation(Perm::PerfectShuffle),
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::PAPER,
        };
        let w = Workload::compile(g, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(14);
        // Node 1 (001₄ → 010₄ = 4) always sends to 4.
        assert_eq!(w.draw_destination(1, &mut rng), 4);
        // Constant-digit addresses are silent fixed points: 0, 21, 42, 63.
        for fp in [0u32, 21, 42, 63] {
            assert_eq!(w.message_rate(fp), 0.0);
        }
        assert!(w.message_rate(1) > 0.0);
    }

    #[test]
    fn silent_nodes_have_no_rate_and_refuse_a_destination() {
        let refuses = |w: &Workload, node| {
            std::panic::catch_unwind(|| w.draw_destination(node, &mut SmallRng::seed_from_u64(1)))
                .is_err()
        };
        // A fixed point of the permutation, inside a 64-node cluster.
        let shuffle = WorkloadSpec {
            pattern: TrafficPattern::Permutation(Perm::PerfectShuffle),
            ..WorkloadSpec::global_uniform(0.3)
        };
        let w = Workload::compile(g64(), &shuffle).unwrap();
        assert!(refuses(&w, 21) && !refuses(&w, 1));
        // Clusters of one, under both within-cluster patterns.
        let g = Geometry::new(2, 1);
        for pattern in [TrafficPattern::Uniform, TrafficPattern::HotSpot { extra: 0.1 }] {
            let alone = WorkloadSpec {
                pattern,
                clustering: Clustering::cubes_from_patterns(&g, &["0", "1"]).unwrap(),
                ..WorkloadSpec::global_uniform(0.3)
            };
            let w = Workload::compile(g, &alone).unwrap();
            assert_eq!((w.message_rate(0), w.message_rate(1)), (0.0, 0.0));
            assert!(refuses(&w, 0) && refuses(&w, 1));
        }
    }

    #[test]
    fn template_instantiation_is_bit_identical_to_compile() {
        let g = g64();
        let specs = [
            WorkloadSpec::global_uniform(0.123),
            WorkloadSpec {
                offered_load: 0.7,
                pattern: TrafficPattern::HotSpot { extra: 0.05 },
                clustering: Clustering::cubes_from_patterns(&g, &["0XX", "1XX", "2XX", "3XX"])
                    .unwrap(),
                rates: Some(vec![4.0, 2.0, 1.0, 1.0]),
                sizes: MessageSizeDist::PAPER,
            },
            WorkloadSpec {
                offered_load: 0.31,
                pattern: TrafficPattern::Permutation(Perm::PerfectShuffle),
                clustering: Clustering::Global,
                rates: None,
                sizes: MessageSizeDist::Fixed(32),
            },
        ];
        for spec in specs {
            let tpl = WorkloadTemplate::compile(g, &spec).unwrap();
            for load in [0.05, spec.offered_load, 0.9] {
                let via_tpl = tpl.workload_at(load).unwrap();
                let fresh = Workload::compile(
                    g,
                    &WorkloadSpec {
                        offered_load: load,
                        ..spec.clone()
                    },
                )
                .unwrap();
                for node in 0..g.nodes() {
                    assert_eq!(
                        via_tpl.message_rate(node).to_bits(),
                        fresh.message_rate(node).to_bits(),
                        "node {node} at load {load}"
                    );
                }
                assert_eq!(via_tpl.offered_load().to_bits(), fresh.offered_load().to_bits());
            }
        }
    }

    #[test]
    fn template_rejects_bad_load_late() {
        let tpl = WorkloadTemplate::compile(g64(), &WorkloadSpec::global_uniform(0.5)).unwrap();
        assert!(tpl.workload_at(0.0).is_err());
        assert!(tpl.workload_at(f64::NAN).is_err());
        assert!(tpl.workload_at(0.4).is_ok());
        assert_eq!(tpl.geometry(), g64());
    }

    #[test]
    fn compile_errors() {
        let g = g64();
        assert!(Workload::compile(g, &WorkloadSpec::global_uniform(0.0)).is_err());
        let bad_rates = WorkloadSpec {
            rates: Some(vec![1.0, 2.0]),
            ..WorkloadSpec::global_uniform(0.1)
        };
        assert!(matches!(
            Workload::compile(g, &bad_rates),
            Err(e) if e.contains("rate entries")
        ));
        let bad_perm = WorkloadSpec {
            pattern: TrafficPattern::Permutation(Perm::Butterfly(9)),
            ..WorkloadSpec::global_uniform(0.1)
        };
        assert!(Workload::compile(g, &bad_perm).is_err());
    }
}
