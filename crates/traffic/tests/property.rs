//! Property tests for workload compilation and destination sampling.

use minnet_topology::Geometry;
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::new(2, 3)),
        Just(Geometry::new(4, 2)),
        Just(Geometry::new(4, 3)),
        Just(Geometry::new(8, 2)),
    ]
}

fn pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Uniform),
        (0.0f64..0.5).prop_map(|x| TrafficPattern::HotSpot { extra: x }),
        Just(TrafficPattern::SHUFFLE),
        Just(TrafficPattern::butterfly(1)),
    ]
}

fn msd_clustering(g: &Geometry) -> Clustering {
    let free: String = std::iter::repeat_n('X', g.n() as usize - 1).collect();
    let pats: Vec<String> = (0..g.k()).map(|v| format!("{v}{free}")).collect();
    let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
    Clustering::cubes_from_patterns(g, &refs).expect("valid patterns")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn destinations_are_always_valid(
        g in geometry(),
        pattern in pattern(),
        clustered in proptest::bool::ANY,
        load in 0.01f64..1.5,
        seed in 0u64..10_000,
    ) {
        let clustering = if clustered {
            msd_clustering(&g)
        } else {
            Clustering::Global
        };
        let spec = WorkloadSpec {
            offered_load: load,
            pattern,
            clustering,
            rates: None,
            sizes: MessageSizeDist::PAPER,
        };
        let wl = Workload::compile(g, &spec).unwrap();
        let clusters = wl.clusters().clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        for node in 0..g.nodes() {
            if wl.message_rate(node) == 0.0 {
                continue; // silent node (permutation fixed point)
            }
            for _ in 0..20 {
                let d = wl.draw_destination(node, &mut rng);
                prop_assert!(d < g.nodes());
                prop_assert_ne!(d, node);
                match pattern {
                    TrafficPattern::Uniform | TrafficPattern::HotSpot { .. } => {
                        prop_assert_eq!(
                            clusters.cluster_of(d),
                            clusters.cluster_of(node),
                            "destination left the cluster"
                        );
                    }
                    TrafficPattern::Permutation(_) => {}
                }
            }
        }
    }

    #[test]
    fn aggregate_rate_matches_nominal_load(
        g in geometry(),
        load in 0.01f64..1.0,
        ratios in proptest::collection::vec(0.0f64..5.0, 2..9),
    ) {
        // With uniform traffic and any valid rate vector, the aggregate
        // flit rate equals load × N exactly (the §5.2 normalisation).
        let clustering = msd_clustering(&g);
        let nclusters = g.k() as usize;
        let mut rates: Vec<f64> = ratios.into_iter().take(nclusters).collect();
        while rates.len() < nclusters {
            rates.push(1.0);
        }
        prop_assume!(rates.iter().sum::<f64>() > 0.0);
        let spec = WorkloadSpec {
            offered_load: load,
            pattern: TrafficPattern::Uniform,
            clustering,
            rates: Some(rates),
            sizes: MessageSizeDist::PAPER,
        };
        let wl = Workload::compile(g, &spec).unwrap();
        let agg = (0..g.nodes()).map(|n| wl.message_rate(n)).sum::<f64>() * spec.sizes.mean();
        let rel = (agg - load * g.nodes() as f64).abs() / (load * g.nodes() as f64);
        prop_assert!(rel < 1e-9, "aggregate {agg} vs nominal {}", load * g.nodes() as f64);
    }

    #[test]
    fn message_lengths_respect_distribution(
        min in 1u32..100,
        span in 0u32..500,
        seed in 0u64..10_000,
    ) {
        let g = Geometry::new(2, 3);
        let spec = WorkloadSpec {
            offered_load: 0.1,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::UniformRange { min, max: min + span },
        };
        let wl = Workload::compile(g, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            let len = wl.draw_length(&mut rng);
            prop_assert!((min..=min + span).contains(&len));
        }
    }
}
