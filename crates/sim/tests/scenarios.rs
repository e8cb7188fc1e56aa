//! Deterministic scenario tests pinning down the engine's wormhole
//! semantics: exact unloaded latencies, blocking, lane/VC sharing, and
//! stochastic sanity (determinism, conservation, sustainability).

use minnet_sim::{run_scripted, run_simulation, EngineConfig, ScriptedMsg, TransmitOrder};
use minnet_switch::{ArbiterKind, VcMuxPolicy};
use minnet_topology::{build_bmin, build_unidir, Geometry, NodeAddr, UnidirKind};
use minnet_traffic::{MessageSizeDist, Workload, WorkloadSpec};

fn scripted_cfg() -> EngineConfig {
    EngineConfig {
        warmup: 0,
        measure: 1_000_000,
        ..EngineConfig::default()
    }
}

/// Unloaded wormhole latency over P channels with L flits is P + L - 1
/// cycles: the header pays one cycle per hop, the tail streams behind.
#[test]
fn tmin_single_message_exact_latency() {
    for kind in [UnidirKind::Cube, UnidirKind::Butterfly] {
        let g = Geometry::new(2, 3);
        let net = build_unidir(g, kind, 1);
        for len in [1u32, 8, 100] {
            let report = run_scripted(
                &net,
                &[ScriptedMsg { time: 0, src: 0, dst: 7, len }],
                &scripted_cfg(),
            )
            .unwrap();
            let deliveries = report.deliveries.unwrap();
            assert_eq!(deliveries.len(), 1);
            let expect = (g.n() + 1) as u64 + len as u64 - 1;
            assert_eq!(deliveries[0].done_time, expect, "{kind:?} len {len}");
        }
    }
}

/// BMIN: path length 2(t+1), so unloaded latency is 2(t+1) + L - 1 and is
/// *distance-sensitive* only in the additive path term (the wormhole
/// distance-insensitivity property).
#[test]
fn bmin_single_message_exact_latency() {
    let g = Geometry::new(4, 3);
    let net = build_bmin(g);
    let len = 16u32;
    for (src, dst) in [(0u32, 1u32), (0, 4), (0, 63), (17, 16), (5, 62)] {
        let t = g
            .first_difference(NodeAddr(src), NodeAddr(dst))
            .unwrap();
        let report = run_scripted(
            &net,
            &[ScriptedMsg { time: 0, src, dst, len }],
            &scripted_cfg(),
        )
        .unwrap();
        let d = &report.deliveries.unwrap()[0];
        assert_eq!(
            d.done_time,
            (2 * (t + 1)) as u64 + len as u64 - 1,
            "{src}→{dst}"
        );
    }
}

/// Wormhole switching is distance-insensitive when there is no contention:
/// doubling the path length adds hops, not serialization time.
#[test]
fn distance_insensitivity() {
    let g = Geometry::new(4, 3);
    let net = build_bmin(g);
    let len = 512u32;
    let near = run_scripted(&net, &[ScriptedMsg { time: 0, src: 0, dst: 1, len }], &scripted_cfg())
        .unwrap()
        .deliveries
        .unwrap()[0]
        .done_time;
    let far = run_scripted(&net, &[ScriptedMsg { time: 0, src: 0, dst: 63, len }], &scripted_cfg())
        .unwrap()
        .deliveries
        .unwrap()[0]
        .done_time;
    // 4 extra channels on a 512-flit message: under 1% extra latency.
    assert_eq!(far - near, 4);
    let rel = (far - near) as f64 / near as f64;
    assert!(rel < 0.01);
}

/// Two messages to the same destination serialize on the ejection channel.
#[test]
fn output_contention_serializes() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let len = 32u32;
    let report = run_scripted(
        &net,
        &[
            ScriptedMsg { time: 0, src: 0, dst: 7, len },
            ScriptedMsg { time: 0, src: 1, dst: 7, len },
        ],
        &scripted_cfg(),
    )
    .unwrap();
    let ds = report.deliveries.unwrap();
    assert_eq!(ds.len(), 2);
    let (first, second) = (ds[0].done_time, ds[1].done_time);
    assert!(second > first);
    // The loser cannot finish sooner than a full serialization after the
    // winner's tail frees the shared channel.
    assert!(second - first >= len as u64, "spread {}", second - first);
}

/// With dilation 2, two worms crossing the same switch output port proceed
/// in parallel on separate lanes.
///
/// Under cube routing, 0→6 and 4→7 enter the *same* stage-0 switch
/// (shuffle maps both into switch 0) and demand the same output ports at
/// stages 0 and 1 (tag digits 1, 1), diverging only at stage 2 — so they
/// contend for two shared channels in a TMIN but for none in a DMIN.
#[test]
fn dilation_removes_port_serialization() {
    let g = Geometry::new(2, 3);
    let len = 64u32;
    let msgs = [
        ScriptedMsg { time: 0, src: 0, dst: 6, len },
        ScriptedMsg { time: 0, src: 4, dst: 7, len },
    ];
    let solo = run_scripted(
        &build_unidir(g, UnidirKind::Cube, 1),
        &msgs[..1],
        &scripted_cfg(),
    )
    .unwrap()
    .deliveries
    .unwrap()[0]
        .done_time;

    let tmin = run_scripted(&build_unidir(g, UnidirKind::Cube, 1), &msgs, &scripted_cfg()).unwrap();
    let dmin = run_scripted(&build_unidir(g, UnidirKind::Cube, 2), &msgs, &scripted_cfg()).unwrap();
    let tmax = tmin.deliveries.unwrap().iter().map(|d| d.done_time).max().unwrap();
    let dmax = dmin.deliveries.unwrap().iter().map(|d| d.done_time).max().unwrap();
    // TMIN: the two worms serialize on a shared channel. DMIN: both run at
    // full speed on separate lanes and finish together.
    assert!(tmax >= solo + len as u64 - 4, "tmin {tmax} vs solo {solo}");
    assert_eq!(dmax, solo, "dilated lanes must remove the serialization");
}

/// Virtual channels interleave two worms over one physical channel at
/// flit granularity: with fair round-robin both finish together (each at
/// half bandwidth over the shared stretch); with one lane (TMIN) the loser
/// waits for the winner's tail.
#[test]
fn vc_interleaving_shares_bandwidth_fairly() {
    let g = Geometry::new(2, 3);
    let len = 64u32;
    let msgs = [
        ScriptedMsg { time: 0, src: 0, dst: 6, len },
        ScriptedMsg { time: 0, src: 4, dst: 7, len },
    ];
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let tmin = run_scripted(&net, &msgs, &scripted_cfg()).unwrap();
    let vmin = run_scripted(
        &net,
        &msgs,
        &EngineConfig { vcs: 2, ..scripted_cfg() },
    )
    .unwrap();
    let t: Vec<u64> = tmin.deliveries.unwrap().iter().map(|d| d.done_time).collect();
    let v: Vec<u64> = vmin.deliveries.unwrap().iter().map(|d| d.done_time).collect();
    // TMIN: one worm blocks. Its completions are far apart.
    assert!(t[1] - t[0] >= len as u64 - 4);
    // VMIN round-robin: both worms share the channel and finish within a
    // few cycles of each other...
    assert!(v[1] - v[0] <= 4, "VC completions {v:?}");
    // ...and the first VMIN completion is *later* than the first TMIN
    // completion (fairness spreads bandwidth instead of racing one worm).
    assert!(v[0] > t[0]);
}

/// Winner-holds multiplexing degenerates to TMIN-like serialization.
#[test]
fn vc_winner_holds_ablation() {
    let g = Geometry::new(2, 3);
    let len = 64u32;
    let msgs = [
        ScriptedMsg { time: 0, src: 0, dst: 6, len },
        ScriptedMsg { time: 0, src: 4, dst: 7, len },
    ];
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let wh = run_scripted(
        &net,
        &msgs,
        &EngineConfig { vcs: 2, vc_mux: VcMuxPolicy::WinnerHolds, ..scripted_cfg() },
    )
    .unwrap();
    let w: Vec<u64> = wh.deliveries.unwrap().iter().map(|d| d.done_time).collect();
    // The held worm streams at full bandwidth; completions are spread.
    assert!(w[1] - w[0] >= len as u64 / 2, "winner-holds spread {w:?}");
}

/// One-port rule: a source transmits packets strictly in sequence even
/// when virtual channels would allow interleaving at the injection link.
#[test]
fn one_port_injection_is_sequential() {
    let g = Geometry::new(2, 3);
    let len = 50u32;
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let report = run_scripted(
        &net,
        &[
            ScriptedMsg { time: 0, src: 0, dst: 5, len },
            ScriptedMsg { time: 0, src: 0, dst: 6, len },
        ],
        &EngineConfig { vcs: 2, ..scripted_cfg() },
    )
    .unwrap();
    let ds = report.deliveries.unwrap();
    // The second message cannot finish before the first has fully left the
    // source (len cycles) plus its own serialization.
    let second = ds.iter().map(|d| d.done_time).max().unwrap();
    assert!(second >= 2 * len as u64, "second completion {second}");
}

/// BMIN turnaround routing delivers under load with no deadlock and no
/// misrouting (the engine asserts delivery-to-destination internally).
#[test]
fn bmin_delivers_under_scripted_burst() {
    let g = Geometry::new(4, 3);
    let net = build_bmin(g);
    let mut msgs = Vec::new();
    for s in 0..64u32 {
        let d = (s + 21) % 64;
        if s != d {
            msgs.push(ScriptedMsg { time: (s as u64) % 7, src: s, dst: d, len: 24 });
        }
    }
    let report = run_scripted(&net, &msgs, &scripted_cfg()).unwrap();
    assert_eq!(report.deliveries.unwrap().len(), msgs.len());
}

/// Transmit-order ablation: every channel still carries at most one flit
/// per cycle in either order, so the steady-state timing of a single
/// unblocked worm is *identical* — the orders only differ in how quickly
/// bubbles close inside contended worms.
#[test]
fn transmit_order_single_worm_is_order_insensitive() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let msg = [ScriptedMsg { time: 0, src: 0, dst: 7, len: 16 }];
    let topo = run_scripted(&net, &msg, &scripted_cfg()).unwrap();
    let build = run_scripted(
        &net,
        &msg,
        &EngineConfig { transmit_order: TransmitOrder::BuildOrder, ..scripted_cfg() },
    )
    .unwrap();
    assert_eq!(
        topo.deliveries.unwrap()[0].done_time,
        build.deliveries.unwrap()[0].done_time
    );
}

/// Crossbar validation (Fig. 2 legality) holds over a loaded run on every
/// network type, under the paper's random output arbitration and the
/// round-robin ablation.
#[test]
fn crossbar_legality_holds_under_load() {
    let g = Geometry::new(2, 3);
    let spec = WorkloadSpec {
        sizes: MessageSizeDist::Fixed(16),
        ..WorkloadSpec::global_uniform(0.6)
    };
    let wl = Workload::compile(g, &spec).unwrap();
    for alloc in [ArbiterKind::Random, ArbiterKind::RoundRobin] {
        let cfg = EngineConfig {
            warmup: 500,
            measure: 4_000,
            validate_crossbars: true,
            alloc,
            ..EngineConfig::default()
        };
        for net in [
            build_unidir(g, UnidirKind::Cube, 1),
            build_unidir(g, UnidirKind::Butterfly, 1),
            build_unidir(g, UnidirKind::Cube, 2),
            build_bmin(g),
        ] {
            let report = run_simulation(&net, &wl, &cfg).unwrap();
            assert!(report.delivered_packets > 0);
        }
    }
}

/// Same seed ⇒ bit-identical results; different seed ⇒ different sample
/// path but similar throughput.
#[test]
fn determinism_and_seed_sensitivity() {
    let g = Geometry::new(4, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::Fixed(32),
            ..WorkloadSpec::global_uniform(0.3)
        },
    )
    .unwrap();
    let cfg = EngineConfig { warmup: 1_000, measure: 8_000, ..EngineConfig::default() };
    let a = run_simulation(&net, &wl, &cfg).unwrap();
    let b = run_simulation(&net, &wl, &cfg).unwrap();
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.mean_latency_cycles, b.mean_latency_cycles);
    assert_eq!(a.max_latency_cycles, b.max_latency_cycles);
    let c = run_simulation(&net, &wl, &EngineConfig { seed: 99, ..cfg }).unwrap();
    assert_ne!(a.mean_latency_cycles, c.mean_latency_cycles);
    let rel = (a.accepted_flits_per_node_cycle - c.accepted_flits_per_node_cycle).abs()
        / a.accepted_flits_per_node_cycle;
    assert!(rel < 0.15, "seed changed throughput by {rel}");
}

/// Flit conservation at low load: everything generated is delivered (plus
/// possibly a handful still in flight), and latency sits near the
/// unloaded value.
#[test]
fn low_load_conservation_and_latency() {
    let g = Geometry::new(4, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::Fixed(32),
            ..WorkloadSpec::global_uniform(0.05)
        },
    )
    .unwrap();
    let cfg = EngineConfig { warmup: 2_000, measure: 20_000, ..EngineConfig::default() };
    let r = run_simulation(&net, &wl, &cfg).unwrap();
    assert!(r.sustainable);
    assert!(r.delivered_packets > 100, "not enough samples: {}", r.delivered_packets);
    // Unloaded: 4 hops + 31 = 35 cycles; allow mild queueing.
    assert!(r.mean_latency_cycles >= 35.0);
    assert!(r.mean_latency_cycles < 45.0, "latency {}", r.mean_latency_cycles);
    // Accepted ≈ offered.
    let rel = (r.accepted_flits_per_node_cycle - r.offered_flits_per_node_cycle).abs()
        / r.offered_flits_per_node_cycle;
    assert!(rel < 0.05, "accepted deviates from offered by {rel}");
}

/// Offered load beyond the one-port bound cannot be sustained: queues
/// blow through the paper's 100-message limit.
#[test]
fn overload_is_unsustainable() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::Fixed(16),
            ..WorkloadSpec::global_uniform(2.0)
        },
    )
    .unwrap();
    let cfg = EngineConfig { warmup: 0, measure: 40_000, ..EngineConfig::default() };
    let r = run_simulation(&net, &wl, &cfg).unwrap();
    assert!(!r.sustainable, "max queue {}", r.max_queue);
    assert!(r.max_queue > 100);
    // Accepted throughput saturates strictly below the offered rate.
    assert!(r.accepted_flits_per_node_cycle < 0.9 * r.offered_flits_per_node_cycle);
}

/// Channel-utilization collection: injection channels of active sources
/// are busy, utilization is within [0, 1].
#[test]
fn channel_utilization_collection() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::Fixed(16),
            ..WorkloadSpec::global_uniform(0.4)
        },
    )
    .unwrap();
    let cfg = EngineConfig {
        warmup: 1_000,
        measure: 10_000,
        collect_channel_util: true,
        ..EngineConfig::default()
    };
    let r = run_simulation(&net, &wl, &cfg).unwrap();
    let util = r.channel_utilization.unwrap();
    assert_eq!(util.len(), net.num_channels());
    assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    let mean: f64 = util.iter().sum::<f64>() / util.len() as f64;
    assert!(mean > 0.2, "mean utilization {mean}");
}

/// Deeper channel buffers do not change uncontended timing …
#[test]
fn buffer_depth_preserves_unloaded_latency() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let msg = [ScriptedMsg { time: 0, src: 0, dst: 7, len: 32 }];
    let d1 = run_scripted(&net, &msg, &scripted_cfg()).unwrap();
    let d8 = run_scripted(
        &net,
        &msg,
        &EngineConfig { buffer_depth: 8, ..scripted_cfg() },
    )
    .unwrap();
    assert_eq!(
        d1.deliveries.unwrap()[0].done_time,
        d8.deliveries.unwrap()[0].done_time
    );
}

/// … but they let a blocked worm compress into buffers, releasing its
/// upstream channels early — the mechanism the paper's "only one flit
/// buffer" condition suppresses.
///
/// Scenario (cube TMIN): A (1→7, 300 flits) occupies node 7's ejection
/// channel. B (4→7, 6 flits) blocks behind A; its worm parks in the
/// buffers of its level-2 channel. C (0→4, 16 flits) needs only B's
/// *level-1* channel and diverges before the parking spot. With one-flit
/// buffers B's tail cannot cross level 1 until A drains, so C waits out
/// most of A; with depth-8 buffers all six of B's flits compress past
/// level 1 within a few cycles and C sails through.
#[test]
fn buffer_depth_releases_blocked_chains() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let msgs = [
        ScriptedMsg { time: 0, src: 1, dst: 7, len: 300 },
        ScriptedMsg { time: 2, src: 4, dst: 7, len: 6 },
        ScriptedMsg { time: 8, src: 0, dst: 4, len: 16 },
    ];
    let done_c = |depth: u16| {
        let r = run_scripted(
            &net,
            &msgs,
            &EngineConfig { buffer_depth: depth, ..scripted_cfg() },
        )
        .unwrap();
        r.deliveries
            .unwrap()
            .iter()
            .find(|d| d.dst == 4)
            .expect("C delivered")
            .done_time
    };
    let shallow = done_c(1);
    let deep = done_c(8);
    assert!(
        deep + 100 < shallow,
        "depth 8 ({deep}) should beat depth 1 ({shallow}) by ~A's residual length"
    );
}

/// The BMIN's random forward-channel choice spreads load: under global
/// uniform traffic every forward channel at each level carries nearly the
/// same traffic (coefficient of variation small), and backward channels
/// are symmetric by the uniform destinations.
#[test]
fn bmin_adaptive_up_routing_balances_channels() {
    use minnet_topology::Direction;
    let g = Geometry::new(4, 3);
    let net = build_bmin(g);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::Fixed(32),
            ..WorkloadSpec::global_uniform(0.3)
        },
    )
    .unwrap();
    let cfg = EngineConfig {
        warmup: 3_000,
        measure: 30_000,
        collect_channel_util: true,
        ..EngineConfig::default()
    };
    let r = run_simulation(&net, &wl, &cfg).unwrap();
    let util = r.channel_utilization.unwrap();
    for level in 0..g.n() as u8 {
        for dir in [Direction::Forward, Direction::Backward] {
            let us: Vec<f64> = net
                .channels_at_level(level, dir)
                .iter()
                .map(|&c| util[c as usize])
                .collect();
            let mean = us.iter().sum::<f64>() / us.len() as f64;
            assert!(mean > 0.0, "level {level} {dir:?} idle");
            let var = us.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / us.len() as f64;
            let cov = var.sqrt() / mean;
            assert!(
                cov < 0.25,
                "level {level} {dir:?}: utilization imbalance cov = {cov:.3}"
            );
        }
    }
}

/// Report internal consistency under load: percentiles are ordered, the
/// CI is finite, and accepted throughput never exceeds offered or the
/// one-port bound.
#[test]
fn report_metric_consistency() {
    let g = Geometry::new(4, 3);
    let net = build_unidir(g, UnidirKind::Cube, 2);
    let wl = Workload::compile(
        g,
        &WorkloadSpec {
            sizes: MessageSizeDist::PAPER,
            ..WorkloadSpec::global_uniform(0.5)
        },
    )
    .unwrap();
    let cfg = EngineConfig { warmup: 3_000, measure: 20_000, ..EngineConfig::default() };
    let r = run_simulation(&net, &wl, &cfg).unwrap();
    assert!(r.p50_latency_cycles <= r.p95_latency_cycles);
    assert!(r.p95_latency_cycles <= r.p99_latency_cycles);
    assert!(r.p99_latency_cycles <= r.max_latency_cycles);
    assert!((r.p50_latency_cycles as f64) < 2.0 * r.mean_latency_cycles);
    assert!(r.latency_ci95_cycles.is_finite() && r.latency_ci95_cycles >= 0.0);
    assert!(r.accepted_flits_per_node_cycle <= 1.0);
    assert!(r.accepted_flits_per_node_cycle <= r.offered_flits_per_node_cycle * 1.05);
    assert!(r.mean_queue >= 0.0);
    assert_eq!(r.cycles, 23_000);
}

/// Chained messages: a relay's send starts exactly `overhead` cycles
/// after its enabling delivery, so a two-hop chain's exact timing is the
/// sum of unloaded latencies plus the overhead.
#[test]
fn chained_messages_exact_relay_timing() {
    use minnet_sim::{run_chained, ChainedMsg};
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let len = 20u32;
    let overhead = 7u64;
    let msgs = [
        ChainedMsg { src: 0, dst: 3, len, earliest: 5, after: None },
        ChainedMsg { src: 3, dst: 6, len, earliest: 0, after: Some(0) },
    ];
    let cfg = EngineConfig { warmup: 0, measure: 100_000, ..EngineConfig::default() };
    let r = run_chained(&net, &msgs, overhead, &cfg).unwrap();
    let ds = r.deliveries.unwrap();
    assert_eq!(ds.len(), 2);
    let hop = (g.n() + 1) as u64 + len as u64 - 1; // 23 cycles unloaded
    let first = ds.iter().find(|d| d.tag == 0).unwrap();
    let second = ds.iter().find(|d| d.tag == 1).unwrap();
    assert_eq!(first.done_time, 5 + hop);
    assert_eq!(second.gen_time, first.done_time + overhead);
    assert_eq!(second.done_time, first.done_time + overhead + hop);
}

/// Chained validation: forward references and self-sends are rejected.
#[test]
fn chained_input_validation() {
    use minnet_sim::{run_chained, ChainedMsg};
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let cfg = EngineConfig { warmup: 0, measure: 1_000, ..EngineConfig::default() };
    // Forward dependency.
    let bad = [
        ChainedMsg { src: 0, dst: 1, len: 8, earliest: 0, after: Some(1) },
        ChainedMsg { src: 1, dst: 2, len: 8, earliest: 0, after: None },
    ];
    assert!(run_chained(&net, &bad, 0, &cfg).is_err());
    // Self-send.
    let selfy = [ChainedMsg { src: 2, dst: 2, len: 8, earliest: 0, after: None }];
    assert!(run_chained(&net, &selfy, 0, &cfg).is_err());
}

/// Scripted-run input validation.
#[test]
fn scripted_input_validation() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    assert!(run_scripted(&net, &[ScriptedMsg { time: 0, src: 3, dst: 3, len: 8 }], &scripted_cfg()).is_err());
    assert!(run_scripted(&net, &[ScriptedMsg { time: 0, src: 0, dst: 99, len: 8 }], &scripted_cfg()).is_err());
    assert!(run_scripted(&net, &[ScriptedMsg { time: 0, src: 0, dst: 1, len: 0 }], &scripted_cfg()).is_err());
}
