//! The network graph's byte budget, held as code.
//!
//! A channel costs ≈ 4.3 bytes in the id arena (its output-port or
//! injection slot and a share of the ejection section) and nothing else:
//! its descriptor and its transmit-order position are computed from the
//! wiring, and so are a switch's stage and a port's arena offset.
//! `approx_bytes` reports lengths × element size — the figure the
//! benchmark publishes as `topology.graph_bytes`; what it cannot see
//! (build transients) is held by `crates/sim/tests/peak_rss.rs`.

use minnet_topology::{build_bmin, build_unidir, Geometry, NetworkGraph, UnidirKind};

#[test]
fn graph_budget() {
    let net = build_bmin(Geometry::new(4, 7));
    let (bytes, channels) = (net.approx_bytes(), net.num_channels());
    assert_eq!(channels, 229_376);
    assert!(
        bytes <= 5 * channels + 4096,
        "16k BMIN: {bytes} B for {channels} channels"
    );

    let wirings = [
        UnidirKind::Cube,
        UnidirKind::Butterfly,
        UnidirKind::Omega,
        UnidirKind::Baseline,
    ];
    for (k, n) in [(2, 3), (3, 3), (4, 3), (8, 2), (4, 4)] {
        let g = Geometry::new(k, n);
        let mut lineup: Vec<NetworkGraph> = vec![build_bmin(g)];
        for w in wirings {
            lineup.extend([1, 2].map(|d| build_unidir(g, w, d)));
        }
        for net in lineup {
            let (bytes, channels) = (net.approx_bytes(), net.num_channels());
            assert!(
                bytes <= 6 * channels + 512,
                "{:?} {g:?}: {bytes} B for {channels} channels",
                net.kind
            );
        }
    }
}
