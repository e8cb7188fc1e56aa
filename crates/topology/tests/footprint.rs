//! The network graph's byte budget, held as code.
//!
//! A graph stores nothing that grows with its channels or nodes: a
//! channel's descriptor, its transmit-order position, a port's lanes and
//! a node's terminal channels are all computed from the wiring, so what
//! is left is the struct and a divisor a stage. `approx_bytes` reports
//! lengths × element size — the figure the benchmark publishes as
//! `topology.graph_bytes`; what it cannot see (build transients) is held
//! by `crates/sim/tests/peak_rss.rs`. (The transmit order, built only
//! when a masked table or a test asks for it, is not built here.)

use minnet_topology::{build_bmin, build_unidir, Geometry, UnidirKind};

const BUDGET: usize = 1024;

#[test]
fn graph_budget() {
    let g = Geometry::new(4, 7);
    let mut lineup = vec![build_bmin(g), build_unidir(g, UnidirKind::Cube, 2)];
    assert_eq!(lineup[0].num_channels(), 229_376);

    let wirings = [
        UnidirKind::Cube,
        UnidirKind::Butterfly,
        UnidirKind::Omega,
        UnidirKind::Baseline,
    ];
    for (k, n) in [(2, 3), (3, 3), (4, 3), (8, 2), (4, 4), (32, 2)] {
        let g = Geometry::new(k, n);
        lineup.push(build_bmin(g));
        for w in wirings {
            lineup.extend([1, 2].map(|d| build_unidir(g, w, d)));
        }
    }
    for net in &lineup {
        let (bytes, channels) = (net.approx_bytes(), net.num_channels());
        assert!(
            bytes <= BUDGET,
            "{:?} {:?}: {bytes} B for {channels} channels",
            net.kind,
            net.geometry
        );
    }
}
