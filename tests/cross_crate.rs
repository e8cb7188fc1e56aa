//! Cross-crate consistency: the static theory (topology / routing /
//! partition) must agree with what the dynamic engine actually does.

use minnet::partition::UnidirPartitionAnalysis;
use minnet::routing::{dependency_graph, find_cycle, DependencyRule};
use minnet::traffic::Clustering;
use minnet::{Experiment, NetworkSpec};
use minnet_topology::{Endpoint, Geometry, NetworkGraph, UnidirKind};

/// Map `(level, wire position)` to the channel ids realising it (one per
/// lane) in a unidirectional MIN graph.
fn position_channels(net: &NetworkGraph, level: u32, pos: u32) -> Vec<u32> {
    let k = net.geometry.k();
    let n = net.geometry.n();
    (0..net.num_channels() as u32)
        .filter(|&c| {
            let ch = net.channel(c);
            if ch.level as u32 != level {
                return false;
            }
            if level < n {
                // Input-side position: destination switch and port.
                match ch.dst {
                    Endpoint::Switch { sw, port, .. } => {
                        let idx = net.switch(sw).index;
                        idx * k + u32::from(port) == pos
                    }
                    _ => false,
                }
            } else {
                // Final level: output-side position at stage n-1.
                match ch.src {
                    Endpoint::Switch { sw, port, .. } => {
                        let idx = net.switch(sw).index;
                        idx * k + u32::from(port) == pos
                    }
                    _ => false,
                }
            }
        })
        .collect()
}

/// The partition analysis *predicts* which channels a single active
/// cluster may touch; the engine's measured utilization must be zero
/// everywhere else and positive inside.
#[test]
fn partition_prediction_matches_measured_utilization() {
    let g = Geometry::new(4, 3);
    for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
        let spec = NetworkSpec::Tmin(kind);
        let net = spec.build(g);

        // Only cluster 0 (nodes 0..16) generates traffic.
        let patterns = ["0XX", "1XX", "2XX", "3XX"];
        let clusters: Vec<Vec<u32>> = patterns
            .iter()
            .map(|p| {
                minnet_topology::CubeSpec::parse(&g, p)
                    .unwrap()
                    .members(&g)
                    .iter()
                    .map(|a| a.0)
                    .collect()
            })
            .collect();
        let analysis = UnidirPartitionAnalysis::analyze(g, kind, &clusters);

        let mut exp = Experiment::paper_default(spec);
        exp.clustering = Clustering::cubes_from_patterns(&g, &patterns).unwrap();
        exp.rates = Some(vec![1.0, 0.0, 0.0, 0.0]);
        exp.sim.warmup = 5_000;
        exp.sim.measure = 30_000;
        let compiled = exp.compile().unwrap();
        let wl = compiled.template().workload_at(0.3).unwrap();
        let (traffic, st) = (minnet_sim::Traffic::Poisson(&wl), &mut minnet_sim::EngineState::new());
        let report = compiled.network().run_observed(traffic, None, exp.sim.seed, st).unwrap();
        let util = report.channel_utilization.unwrap();

        // Sanity: the static analysis agrees with what we re-derive below.
        assert!(analysis.channels_used(0, 0) > 0);

        // Predicted channel set of cluster 0, by walking its unique paths.
        let mut predicted = vec![false; net.num_channels()];
        use minnet_topology::unidir::unique_path_positions;
        for &s in &clusters[0] {
            for &d in &clusters[0] {
                if s == d {
                    continue;
                }
                for (level, pos) in unique_path_positions(
                    &g,
                    kind,
                    minnet_topology::NodeAddr(s),
                    minnet_topology::NodeAddr(d),
                ) {
                    for c in position_channels(&net, level, pos) {
                        predicted[c as usize] = true;
                    }
                }
            }
        }

        let mut inside_busy = 0usize;
        for (c, &u) in util.iter().enumerate() {
            if !predicted[c] {
                assert_eq!(
                    u, 0.0,
                    "{kind:?}: channel {c} outside the predicted set is busy ({u})"
                );
            } else if u > 0.0 {
                inside_busy += 1;
            }
        }
        assert!(
            inside_busy > 16,
            "{kind:?}: too few predicted channels saw traffic ({inside_busy})"
        );
    }
}

/// Every network we simulate has an acyclic channel-dependency graph —
/// the static guarantee behind the engine's freedom from deadlock.
#[test]
fn all_simulated_networks_are_deadlock_free() {
    let g = Geometry::new(4, 3);
    for spec in NetworkSpec::paper_lineup() {
        let net = spec.build(g);
        let adj = dependency_graph(&net, DependencyRule::Paper);
        assert!(find_cycle(&adj).is_none(), "{}", spec.name());
    }
}

/// The engine's reverse-topological transmit order is a valid linearisation
/// of the dependency graph: a channel never depends on one processed
/// earlier... i.e. for every dependency edge c1 → c2, c2 comes first.
#[test]
fn transmit_order_linearises_dependencies() {
    let g = Geometry::new(4, 3);
    for spec in NetworkSpec::paper_lineup() {
        let net = spec.build(g);
        let order = net.transmit_order();
        let mut rank = vec![0usize; net.num_channels()];
        for (i, &c) in order.iter().enumerate() {
            rank[c as usize] = i;
        }
        let adj = dependency_graph(&net, DependencyRule::Paper);
        for (c1, succs) in adj.iter().enumerate() {
            for &c2 in succs {
                assert!(
                    rank[c2 as usize] < rank[c1],
                    "{}: dependency {c1} → {c2} not respected",
                    spec.name()
                );
            }
        }
    }
}

/// Everything scales past the paper's 64-node design point: build and
/// briefly drive a 256-node (k=4, n=4) instance of every network.
#[test]
fn scales_to_256_nodes() {
    use minnet::traffic::MessageSizeDist;
    let g = Geometry::new(4, 4);
    for spec in NetworkSpec::paper_lineup() {
        let net = spec.build(g);
        net.validate().unwrap();
        assert_eq!(net.geometry.nodes(), 256);
        let mut exp = Experiment::paper_default(spec);
        exp.geometry = g;
        exp.sizes = MessageSizeDist::Fixed(32);
        exp.sim.warmup = 500;
        exp.sim.measure = 3_000;
        let r = exp.run(0.2).unwrap();
        assert!(r.delivered_packets > 0, "{}", spec.name());
    }
}

/// Simulated unloaded latency equals the analytic path length plus
/// serialization for every network type (ties `minnet-routing`'s formulas
/// to `minnet-sim`'s behaviour).
#[test]
fn analytic_path_lengths_match_simulated_latency() {
    use minnet::routing::shortest_path_length;
    use minnet_repro::support::run_once;
    use minnet_sim::{EngineConfig, Script, ScriptedMsg, Traffic};
    let g = Geometry::new(4, 3);
    let cfg = EngineConfig {
        warmup: 0,
        measure: 100_000,
        ..EngineConfig::default()
    };
    let len = 40u32;
    for spec in NetworkSpec::paper_lineup() {
        let net = spec.build(g);
        for (s, d) in [(0u32, 63u32), (5, 6), (17, 40)] {
            let script = Script::compile(g, &[ScriptedMsg { time: 0, src: s, dst: d, len }]).unwrap();
            let r = run_once(&net, &cfg, Traffic::Script(&script), false).unwrap();
            let done = r.deliveries.unwrap()[0].done_time;
            let path = shortest_path_length(
                &g,
                net.kind.is_bidirectional(),
                minnet_topology::NodeAddr(s),
                minnet_topology::NodeAddr(d),
            )
            .unwrap();
            assert_eq!(
                done,
                minnet::model::unloaded_latency_cycles(path, len),
                "{} {s}→{d}",
                spec.name()
            );
        }
    }
}
