//! The closed forms against enumeration.
//!
//! `NetworkGraph::channel` computes a descriptor from its id,
//! `out_port_span` a run of ports' lanes as a `PortSpan`, `inject` /
//! `eject` a node's terminal channels, and `position` / `channel_at` a
//! channel's place in the transmit order from its level; nothing stores
//! any of them. Here every list is rebuilt by brute force from the
//! descriptors alone — scanning all ids, grouping by source port, sorting
//! by rank — and must equal what the accessors return, on random shapes
//! of all four wirings at dilations 1–3 and of the BMIN, and on fixed
//! `d = 3` and `k = 16` shapes.
//! (`graph_identity.rs` pins the same accessors to literals recorded
//! when the descriptors and port lists were still tables.)

use minnet_topology::{
    build_bmin, build_unidir, ChannelId, Endpoint, Geometry, NetworkGraph, Side, UnidirKind,
};
use proptest::prelude::*;

const WIRINGS: [UnidirKind; 4] =
    [UnidirKind::Cube, UnidirKind::Butterfly, UnidirKind::Omega, UnidirKind::Baseline];

/// The output-port code of a switch end (see `graph`'s module docs).
fn code(net: &NetworkGraph, side: Side, port: u8) -> u32 {
    let right_of_bidir = net.kind.is_bidirectional() && side == Side::Right;
    u32::from(port) + if right_of_bidir { net.geometry.k() } else { 0 }
}

fn check(net: &NetworkGraph) {
    assert_eq!(net.validate(), Ok(()));
    let (k, codes) = (net.geometry.k(), net.out_port_codes());
    // ids by source port, ascending — the enumeration a builder's push
    // loop used to leave behind.
    let mut by_port = vec![Vec::new(); net.num_switches() * codes as usize];
    let mut injects = vec![None; net.geometry.nodes() as usize];
    let mut ejects = injects.clone();
    for (id, ch) in net.channels().enumerate() {
        let id = id as ChannelId;
        assert_eq!(net.channel(id), ch);
        let head = match ch.dst {
            Endpoint::Switch { sw, side, .. } => Some((net.switch(sw), side)),
            Endpoint::Node(_) => None,
        };
        assert_eq!(net.head(id), head);
        match ch.src {
            Endpoint::Switch { sw, side, port } => {
                by_port[(sw * codes + code(net, side, port)) as usize].push(id);
            }
            Endpoint::Node(a) => assert_eq!(injects[a as usize].replace(id), None),
        }
        if let Endpoint::Node(a) = ch.dst {
            assert_eq!(ejects[a as usize].replace(id), None);
        }
    }
    for s in 0..net.num_switches() as u32 {
        let want = |lo: u32, hi: u32| -> Vec<ChannelId> {
            (lo..hi).flat_map(|c| by_port[(s * codes + c) as usize].iter().copied()).collect()
        };
        for c in 0..codes {
            let span = net.out_port(s, c);
            assert_eq!(span.collect::<Vec<_>>(), want(c, c + 1), "switch {s} port code {c}");
            assert_eq!(span, net.out_span(net.switch(s), c, c + 1), "switch {s} port code {c}");
        }
        // Every run of codes on one side is one progression — the BMIN's
        // forward fan `k..2k` among them.
        for (lo, hi) in [(0, k), (k, codes), (1, k), (0, k - 1)] {
            let span = net.out_port_span(s, lo, hi);
            assert_eq!(span.len(), want(lo, hi).len(), "switch {s} codes {lo}..{hi}");
            assert_eq!(span.collect::<Vec<_>>(), want(lo, hi), "switch {s} codes {lo}..{hi}");
        }
        assert_eq!(net.out_all(s).collect::<Vec<_>>(), want(0, codes), "switch {s}");
    }
    let some = |ids: Vec<ChannelId>| ids.into_iter().map(Some).collect::<Vec<_>>();
    assert_eq!(some(net.injects().collect()), injects);
    assert_eq!(some(net.ejects().collect()), ejects);
    for a in 0..net.geometry.nodes() {
        assert_eq!(Some(net.inject(a)), injects[a as usize], "node {a}");
        assert_eq!(Some(net.eject(a)), ejects[a as usize], "node {a}");
    }
    let mut order: Vec<ChannelId> = (0..net.num_channels() as ChannelId).collect();
    order.sort_by_key(|&c| net.channel(c).topo_rank);
    assert_eq!(net.transmit_order(), &order[..]);
    for (pos, &id) in order.iter().enumerate() {
        let pos = pos as u32;
        assert_eq!(net.position(id), pos, "channel {id}");
        assert_eq!(net.channel_at(pos), id, "position {pos}");
        assert_eq!(net.level_positions(id).of(id), pos, "channel {id}");
        // Rank 0 is exactly the ejection channels.
        let ejects = matches!(net.channel(id).dst, Endpoint::Node(_));
        assert_eq!(ejects, pos < net.geometry.nodes(), "channel {id}");
    }
    // A port span's positions are a progression too: the map the engine
    // caches a routing decision through.
    for s in 0..net.num_switches() as u32 {
        for (lo, hi) in [(0, k), (k, codes)] {
            let span = net.out_port_span(s, lo, hi);
            if let Some(first) = span.get(0) {
                let at = net.level_positions(first).of_span(span);
                let want: Vec<u32> = span.map(|c| net.position(c)).collect();
                assert_eq!(at.collect::<Vec<_>>(), want, "switch {s} codes {lo}..{hi}");
            }
        }
    }
}

proptest! {
    #[test]
    fn closed_forms_equal_enumeration(
        k in 2u32..=8,
        n in 1u32..=5,
        d in 1u8..=3,
        which in 0usize..5,
    ) {
        prop_assume!(u64::from(k).pow(n) <= 4096);
        let g = Geometry::new(k, n);
        match WIRINGS.get(which) {
            Some(&w) => check(&build_unidir(g, w, d)),
            None => check(&build_bmin(g)),
        }
    }
}

/// Dilation 3 and radix 16 on every wiring and the BMIN, including the
/// one-stage network, whose only switches feed the nodes.
#[test]
fn closed_forms_hold_at_dilation_3_and_radix_16() {
    for (k, n) in [(4, 3), (16, 2), (16, 1), (3, 4)] {
        let g = Geometry::new(k, n);
        check(&build_bmin(g));
        for w in WIRINGS {
            for d in [1, 3] {
                check(&build_unidir(g, w, d));
            }
        }
    }
}
