//! Property-based engine tests: for arbitrary small scripted workloads on
//! arbitrary network types, the engine must deliver every message, respect
//! the unloaded-latency lower bound, conserve flits, and be deterministic.

use minnet_sim::{run_scripted, EngineConfig, ScriptedMsg};
use minnet_topology::{build_bmin, build_unidir, Geometry, NetworkGraph, NodeAddr, UnidirKind};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum NetChoice {
    Tmin(UnidirKind),
    Dmin,
    Vmin,
    Bmin,
}

fn net_choice() -> impl Strategy<Value = NetChoice> {
    prop_oneof![
        Just(NetChoice::Tmin(UnidirKind::Cube)),
        Just(NetChoice::Tmin(UnidirKind::Butterfly)),
        Just(NetChoice::Tmin(UnidirKind::Omega)),
        Just(NetChoice::Tmin(UnidirKind::Baseline)),
        Just(NetChoice::Dmin),
        Just(NetChoice::Vmin),
        Just(NetChoice::Bmin),
    ]
}

fn build(choice: NetChoice, g: Geometry) -> (NetworkGraph, u8) {
    match choice {
        NetChoice::Tmin(kind) => (build_unidir(g, kind, 1), 1),
        NetChoice::Dmin => (build_unidir(g, UnidirKind::Cube, 2), 1),
        NetChoice::Vmin => (build_unidir(g, UnidirKind::Cube, 1), 2),
        NetChoice::Bmin => (build_bmin(g), 1),
    }
}

fn geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::new(2, 2)),
        Just(Geometry::new(2, 3)),
        Just(Geometry::new(4, 2)),
    ]
}

fn path_channels(net: &NetworkGraph, s: u32, d: u32) -> u64 {
    if net.kind.is_bidirectional() {
        let t = net
            .geometry
            .first_difference(NodeAddr(s), NodeAddr(d))
            .expect("distinct nodes");
        2 * (t as u64 + 1)
    } else {
        net.geometry.n() as u64 + 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_message_is_delivered_with_sane_latency(
        choice in net_choice(),
        g in geometry(),
        raw in proptest::collection::vec((0u64..200, 0u32..64, 0u32..64, 1u32..96), 1..24),
        seed in 0u64..1000,
    ) {
        let (net, vcs) = build(choice, g);
        let n = g.nodes();
        let msgs: Vec<ScriptedMsg> = raw
            .iter()
            .map(|&(time, s, d, len)| {
                let src = s % n;
                let mut dst = d % n;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                ScriptedMsg { time, src, dst, len }
            })
            .collect();
        let cfg = EngineConfig {
            vcs,
            warmup: 0,
            measure: 3_000_000, // generous horizon; the run exits when drained
            seed,
            ..EngineConfig::default()
        };
        let report = run_scripted(&net, &msgs, &cfg).unwrap();
        let deliveries = report.deliveries.clone().unwrap();

        // 1. Everything injected is delivered (deadlock/livelock freedom).
        prop_assert_eq!(deliveries.len(), msgs.len());
        prop_assert_eq!(report.in_flight_at_end, 0);

        // 2. Flit conservation: delivered lengths match the script's
        //    multiset of (src, dst, len, gen_time).
        let mut want: Vec<(u32, u32, u32, u64)> =
            msgs.iter().map(|m| (m.src, m.dst, m.len, m.time)).collect();
        let mut got: Vec<(u32, u32, u32, u64)> = deliveries
            .iter()
            .map(|d| (d.src, d.dst, d.len, d.gen_time))
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(want, got);

        // 3. Latency lower bound: a message can never beat its unloaded
        //    pipeline time (it may also wait in the source queue).
        for d in &deliveries {
            let bound = d.gen_time + path_channels(&net, d.src, d.dst) + d.len as u64 - 1;
            prop_assert!(
                d.done_time >= bound,
                "{}→{} len {} finished at {} before bound {}",
                d.src, d.dst, d.len, d.done_time, bound
            );
        }

        // 4. Determinism: replaying the same script and seed reproduces
        //    every completion time.
        let replay = run_scripted(&net, &msgs, &cfg).unwrap();
        prop_assert_eq!(replay.deliveries.unwrap(), deliveries);
    }

    #[test]
    fn per_source_messages_complete_in_fifo_order(
        choice in net_choice(),
        lens in proptest::collection::vec(1u32..64, 2..8),
        seed in 0u64..1000,
    ) {
        // All messages from one source to one destination: the one-port
        // FCFS source queue must preserve completion order.
        let g = Geometry::new(2, 3);
        let (net, vcs) = build(choice, g);
        let msgs: Vec<ScriptedMsg> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| ScriptedMsg { time: i as u64, src: 0, dst: 5, len })
            .collect();
        let cfg = EngineConfig {
            vcs,
            warmup: 0,
            measure: 1_000_000,
            seed,
            ..EngineConfig::default()
        };
        let report = run_scripted(&net, &msgs, &cfg).unwrap();
        let deliveries = report.deliveries.unwrap();
        prop_assert_eq!(deliveries.len(), msgs.len());
        // Completion order equals generation order.
        for w in deliveries.windows(2) {
            prop_assert!(w[0].gen_time < w[1].gen_time);
        }
    }
}
