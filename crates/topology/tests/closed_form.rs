//! The closed forms against enumeration.
//!
//! `NetworkGraph::channel` computes a descriptor from its id,
//! `out_port_range` a port's arena slice from its stage row and
//! `position` / `channel_at` a channel's place in the transmit order from
//! its level; nothing stores any of them. Here every list is rebuilt by
//! brute force from the descriptors alone — scanning all ids, counting
//! prefix sums, sorting by rank — and must equal what the accessors
//! return, on random shapes of all four wirings at dilations 1–3 and of
//! the BMIN.
//! (`graph_identity.rs` pins the same accessors to literals recorded
//! when the descriptors were still a table.)

use minnet_topology::{
    build_bmin, build_unidir, ChannelId, Endpoint, Geometry, NetworkGraph, Side, UnidirKind,
};
use proptest::prelude::*;

/// The output-port code of a switch end (see `graph`'s module docs).
fn code(net: &NetworkGraph, side: Side, port: u8) -> u32 {
    let right_of_bidir = net.kind.is_bidirectional() && side == Side::Right;
    u32::from(port) + if right_of_bidir { net.geometry.k() } else { 0 }
}

fn check(net: &NetworkGraph) {
    assert_eq!(net.validate(), Ok(()));
    let codes = net.out_port_codes();
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
    let mut counted = 0u32;
    for s in 0..net.num_switches() as u32 {
        for c in 0..codes {
            let want = &by_port[(s * codes + c) as usize];
            assert_eq!(net.out_port(s, c), &want[..], "switch {s} port code {c}");
            let range = (counted, counted + want.len() as u32);
            assert_eq!(
                net.out_port_range(net.switch(s), c, c + 1),
                range,
                "switch {s} port code {c}"
            );
            counted = range.1;
        }
    }
    let some = |ids: &[ChannelId]| ids.iter().copied().map(Some).collect::<Vec<_>>();
    assert_eq!(some(net.injects()), injects);
    assert_eq!(some(net.ejects()), ejects);
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
        let wirings =
            [UnidirKind::Cube, UnidirKind::Butterfly, UnidirKind::Omega, UnidirKind::Baseline];
        match wirings.get(which) {
            Some(&w) => check(&build_unidir(g, w, d)),
            None => check(&build_bmin(g)),
        }
    }
}
