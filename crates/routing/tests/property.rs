//! Property tests for the routing layer across random geometries.

use minnet_routing::{
    enumerate_paths, shortest_path_count, shortest_path_length, RouteLogic, RouteTable,
};
use minnet_topology::{
    build_bmin, build_unidir, Direction, Geometry, NetworkGraph, NodeAddr, UnidirKind,
};
use proptest::prelude::*;
use std::sync::Arc;

fn geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::new(2, 2)),
        Just(Geometry::new(2, 3)),
        Just(Geometry::new(2, 4)),
        Just(Geometry::new(4, 2)),
        Just(Geometry::new(4, 3)),
        Just(Geometry::new(8, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn turnaround_paths_all_reach_and_count(
        g in geometry(),
        raw_s in 0u32..100_000,
        raw_d in 0u32..100_000,
    ) {
        let s = raw_s % g.nodes();
        let d = raw_d % g.nodes();
        prop_assume!(s != d);
        let net = build_bmin(g);
        let paths = enumerate_paths(&net, RouteLogic::Turnaround, s, d);
        // Theorem 1 in full generality.
        prop_assert_eq!(
            paths.len() as u64,
            shortest_path_count(&g, NodeAddr(s), NodeAddr(d)).unwrap()
        );
        let want_len = shortest_path_length(&g, true, NodeAddr(s), NodeAddr(d)).unwrap();
        for p in &paths {
            prop_assert_eq!(p.len() as u32, want_len);
            prop_assert_eq!(*p.last().unwrap(), net.eject(d));
            // Forward prefix then backward suffix: directions never go
            // back to forward.
            let dirs: Vec<Direction> = p.iter().map(|&c| net.channel(c).dir).collect();
            let first_back = dirs.iter().position(|&x| x == Direction::Backward).unwrap();
            for (i, &dir) in dirs.iter().enumerate() {
                if i < first_back {
                    prop_assert_eq!(dir, Direction::Forward);
                } else {
                    prop_assert_eq!(dir, Direction::Backward);
                }
            }
        }
        // Paths are pairwise distinct.
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), paths.len());
    }

    #[test]
    fn destination_tag_is_unique_and_wiring_independent_in_length(
        g in geometry(),
        raw_s in 0u32..100_000,
        raw_d in 0u32..100_000,
        which in 0usize..4,
        dilation in 1u8..3,
    ) {
        let s = raw_s % g.nodes();
        let d = raw_d % g.nodes();
        prop_assume!(s != d);
        let kind = [
            UnidirKind::Cube,
            UnidirKind::Butterfly,
            UnidirKind::Omega,
            UnidirKind::Baseline,
        ][which];
        let net = build_unidir(g, kind, dilation);
        let logic = RouteLogic::for_kind(net.kind);
        let paths = enumerate_paths(&net, logic, s, d);
        // d^(n-1) lane combinations over one port path.
        prop_assert_eq!(paths.len() as u32, u32::from(dilation).pow(g.n() - 1));
        for p in &paths {
            prop_assert_eq!(p.len() as u32, g.n() + 1);
            prop_assert_eq!(*p.last().unwrap(), net.eject(d));
        }
    }

    // The table answers like the logic along every channel a random
    // route may visit, across random geometries, wirings and dilations
    // (the exhaustive fixed-geometry walk lives in `table.rs`).
    #[test]
    fn table_equals_logic_along_random_routes(
        g in geometry(),
        which in 0usize..6,
        dilation in 1u8..3,
        raw_s in 0u32..100_000,
        raw_d in 0u32..100_000,
    ) {
        let s = raw_s % g.nodes();
        let d = raw_d % g.nodes();
        prop_assume!(s != d);
        let net: Arc<NetworkGraph> = Arc::new(match which {
            0 => build_unidir(g, UnidirKind::Cube, dilation),
            1 => build_unidir(g, UnidirKind::Butterfly, dilation),
            2 => build_unidir(g, UnidirKind::Omega, dilation),
            3 => build_unidir(g, UnidirKind::Baseline, dilation),
            _ => build_bmin(g),
        });
        let logic = RouteLogic::for_kind(net.kind);
        let table = RouteTable::build(&net).unwrap();
        let mut expect = Vec::new();
        let mut frontier = vec![net.inject(s)];
        while let Some(at) = frontier.pop() {
            logic.candidates(&net, s, d, at, &mut expect);
            prop_assert_eq!(table.candidates(at, d), &expect[..], "channel {}", at);
            frontier.extend_from_slice(&expect);
        }
    }
}
