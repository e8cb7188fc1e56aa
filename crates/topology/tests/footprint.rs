//! The network graph's byte budget and its channel codec, held as code.
//!
//! A channel costs 12 bytes as a [`PackedChannel`], 4 in the port-offset
//! table and ≈ 8 in the id arena (its output-port slot and its transmit-
//! order slot); a switch costs one stage byte. `approx_bytes` reports
//! lengths × element size — the figure the benchmark publishes as
//! `topology.graph_bytes`.

use minnet_topology::{
    build_bmin, build_unidir, ChannelDesc, Direction, Endpoint, Geometry, NetworkGraph,
    PackedChannel, Side, UnidirKind,
};
use proptest::prelude::*;

const _: () = assert!(std::mem::size_of::<PackedChannel>() == 12);

/// The widest values the packed endpoint fields hold.
const MAX_SWITCH: u32 = (1 << 22) - 1;
const MAX_NODE: u32 = (1 << 31) - 1;

#[test]
fn graph_budget() {
    let net = build_bmin(Geometry::new(4, 7));
    let (bytes, channels) = (net.approx_bytes(), net.num_channels());
    assert_eq!(channels, 229_376);
    assert!(
        bytes <= 25 * channels + 4096,
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
                bytes <= 26 * channels + 512,
                "{:?} {g:?}: {bytes} B for {channels} channels",
                net.kind
            );
        }
    }
}

/// A field's two extremes as often as its interior.
fn edged(max: u32) -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(max), 0..=max]
}

fn endpoint() -> impl Strategy<Value = Endpoint> {
    prop_oneof![
        edged(MAX_NODE).prop_map(Endpoint::Node),
        (edged(MAX_SWITCH), proptest::bool::ANY, edged(255)).prop_map(|(sw, right, port)| {
            Endpoint::Switch {
                sw,
                side: if right { Side::Right } else { Side::Left },
                port: port as u8,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn pack_then_decode_is_the_identity(
        src in endpoint(),
        dst in endpoint(),
        level in 0u8..=16,
        lane in edged(255),
        backward in proptest::bool::ANY,
        topo_rank in edged(65_535),
    ) {
        let ch = ChannelDesc {
            src,
            dst,
            level,
            lane: lane as u8,
            dir: if backward { Direction::Backward } else { Direction::Forward },
            topo_rank: topo_rank as u16,
        };
        prop_assert_eq!(ch.pack().map(PackedChannel::decode), Some(ch));
    }

    #[test]
    fn out_of_range_fields_are_refused(
        good in endpoint(),
        sw in MAX_SWITCH + 1..=u32::MAX,
        node in MAX_NODE + 1..=u32::MAX,
        level in 128u8..=255,
        at_dst in proptest::bool::ANY,
    ) {
        let ok = ChannelDesc {
            src: good,
            dst: good,
            level: 0,
            lane: 0,
            dir: Direction::Forward,
            topo_rank: 0,
        };
        prop_assert!(ok.pack().is_some());
        let wide_switch = Endpoint::Switch { sw, side: Side::Left, port: 0 };
        for bad in [wide_switch, Endpoint::Node(node)] {
            let ch = if at_dst { ChannelDesc { dst: bad, ..ok } } else { ChannelDesc { src: bad, ..ok } };
            prop_assert!(ch.pack().is_none(), "{bad:?} must not pack");
        }
        prop_assert!(ChannelDesc { level, ..ok }.pack().is_none(), "level {level} must not pack");
    }
}
