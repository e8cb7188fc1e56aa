//! The engine-state byte budget, held as code.
//!
//! `EngineState` is the last O(network) allocation of a run. Its budget
//! is **5 bytes a lane** at the paper's one-flit buffers (owner 4 + the
//! lane's hop along its owner's route 1; the buffer is its `full` bit,
//! one of the planes' four mask bits) and **7** at any deeper
//! `buffer_depth` (+ the buffer's occupancy 2 — a buffer is a counter,
//! no flit is stored), **4·H bytes a packet slot** for the
//! worm's lane path (H the longest route in channels: 14 on the
//! 16 384-terminal BMIN), **28 bytes a node** (injector 4 + next arrival
//! 8 + its packed arrival-heap key 8 + queue tail / length 8), plus **20
//! bytes a message queued at once** (a 16-byte record and its link) in
//! 256-message chunks that never move; the VC-multiplexer byte a channel
//! exists only when `vcs > 1`, and a `vcs` that is not a power of two
//! pays for the pad planes of its lane group. These tests pin the
//! budget, that arrays which come and go with the configuration or the
//! traffic leave no residue in the results, and that a reused state gives
//! a large network's memory back.
//!
//! The packet-slot arrays grow by `Vec` doubling, so the budget allows
//! twice the slots in flight. That spare capacity costs address space,
//! not memory: a slot array is written only up to the slots in use, and
//! pages past them are never touched, so they are never resident.
//! Growing by an eighth instead costs more, not less: every step copies
//! the arrays, and the 16k scenario's anonymous memory rose by ≈ 130 KB.

use minnet_sim::{
    Chain, ChainedMsg, CompiledNet, EngineConfig, EngineState, Script, ScriptedMsg, SimReport,
    TraceEvent, Traffic,
};
use minnet_topology::{build_bmin, build_unidir, Geometry, UnidirKind};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn bmin(k: u32, n: u32, cfg: EngineConfig) -> CompiledNet {
    CompiledNet::new(Arc::new(build_bmin(Geometry::new(k, n))), cfg).unwrap()
}

fn uniform(k: u32, n: u32, load: f64) -> Workload {
    let spec = WorkloadSpec {
        offered_load: load,
        pattern: TrafficPattern::Uniform,
        clustering: Clustering::Global,
        rates: None,
        sizes: MessageSizeDist::Fixed(32),
    };
    Workload::compile(Geometry::new(k, n), &spec).unwrap()
}

fn burst(vcs: u8, buffer_depth: u16) -> EngineConfig {
    EngineConfig {
        vcs,
        buffer_depth,
        warmup: 0,
        measure: 300,
        ..EngineConfig::default()
    }
}

/// A 300-cycle burst at load 0.1 on the 16 384-terminal BMIN, traced;
/// returns the state's footprint, the lane count, the node count and the
/// most packets in flight at once.
fn burst_16k(cfg: EngineConfig, st: &mut EngineState) -> (usize, usize, usize, usize) {
    let lanes_per_channel = cfg.vcs as usize;
    let net = bmin(4, 7, cfg);
    let report = net.run_observed(Traffic::Poisson(&uniform(4, 7, 0.1)), None, 42, st).unwrap();
    assert!(report.generated_packets > 1_000, "the burst must load the network");
    let g = net.network();
    let lanes = g.num_channels() * lanes_per_channel;
    (st.approx_bytes(), lanes, g.geometry.nodes() as usize, peak_in_flight(&report))
}

/// The most packets in flight at once over a traced run — the packet
/// slots the state needed: an `Injected` event takes one, a `Delivered`
/// or `Aborted` gives it back.
fn peak_in_flight(report: &SimReport) -> usize {
    let (mut now, mut peak) = (0usize, 0usize);
    for e in &report.trace.as_ref().unwrap().events {
        match e {
            TraceEvent::Injected { .. } => now += 1,
            TraceEvent::Delivered { .. } | TraceEvent::Aborted { .. } => now -= 1,
            _ => {}
        }
        peak = peak.max(now);
    }
    peak
}

/// The 16 384-terminal BMIN's longest route: up and down its 7 stages.
const H: usize = 14;

#[test]
fn footprint_budget() {
    let mut st = EngineState::new();
    let (bytes, lanes, nodes, slots) = burst_16k(burst(1, 1), &mut st);
    assert_eq!((lanes, nodes), (229_376, 16_384));
    assert!(slots > 1_000, "{slots} packets in flight at most");
    // The paths grow with the slot table, by doubling.
    let paths = 2 * 4 * H * slots;
    assert!(
        bytes <= 5 * lanes + 28 * nodes + paths + MIB,
        "vcs 1, depth 1: {bytes} B for {lanes} lanes, {nodes} nodes, {slots} slots"
    );
    eprintln!("16k BMIN burst, vcs 1, depth 1: EngineState::approx_bytes {bytes}");
    // Two lanes a channel, four-flit buffers: each lane gains its
    // occupancy counter and each channel its multiplexer byte — 7.5 B a
    // lane.
    let (bytes, lanes, nodes, slots) = burst_16k(burst(2, 4), &mut EngineState::new());
    assert!(
        bytes <= 7 * lanes + lanes / 2 + 28 * nodes + 2 * 4 * H * slots + MIB,
        "vcs 2, depth 4: {bytes} B for {lanes} lanes, {nodes} nodes, {slots} slots"
    );
}

#[test]
fn pooled_state_footprint_shrinks_after_a_large_run() {
    let small = bmin(4, 3, EngineConfig { warmup: 200, measure: 2_000, ..EngineConfig::default() });
    let wl = uniform(4, 3, 0.4);
    let mut fresh = EngineState::new();
    let want = small.run(Traffic::Poisson(&wl), None, 7, &mut fresh).unwrap();

    let mut pooled = EngineState::new();
    let (big, ..) = burst_16k(burst(1, 1), &mut pooled);
    let got = small.run(Traffic::Poisson(&wl), None, 7, &mut pooled).unwrap();
    assert!(got.bitwise_eq(&want), "a shrunk state must run bit-identically");
    assert!(big > 100 * fresh.approx_bytes(), "the 16k run dimensioned the state");
    assert!(
        pooled.approx_bytes() <= 2 * fresh.approx_bytes(),
        "pooled {} B vs fresh {} B after the same 64-node run",
        pooled.approx_bytes(),
        fresh.approx_bytes()
    );
}

#[test]
fn redimension_is_bit_identical() {
    let run = |cfg: &EngineConfig, st: &mut EngineState| -> SimReport {
        bmin(4, 3, cfg.clone()).run(Traffic::Poisson(&uniform(4, 3, 0.4)), None, 11, st).unwrap()
    };
    let base = EngineConfig { warmup: 200, measure: 3_000, ..EngineConfig::default() };
    let first = base.clone();
    let steps = [
        first.clone(),
        EngineConfig { vcs: 2, ..base.clone() },
        EngineConfig { buffer_depth: 4, ..base.clone() },
        EngineConfig { vcs: 3, ..base.clone() },
        first,
    ];
    // The multiplexer bytes, the pad planes and the queue free list come
    // and go along this walk; each stop must match a state that never
    // saw the others.
    let mut reused = EngineState::new();
    for (i, cfg) in steps.iter().enumerate() {
        let got = run(cfg, &mut reused);
        let want = run(cfg, &mut EngineState::new());
        assert!(got.delivered_packets > 0);
        assert!(got.bitwise_eq(&want), "step {i} (vcs {}, depth {})", cfg.vcs, cfg.buffer_depth);
    }
}

/// The most messages sitting in source queues at once over a traced run:
/// a `Queued` event adds one, an `Injected` or `Refused` takes one away.
fn peak_queued(report: &SimReport) -> usize {
    let (mut now, mut peak) = (0usize, 0usize);
    for e in &report.trace.as_ref().unwrap().events {
        match e {
            TraceEvent::Queued { .. } => now += 1,
            TraceEvent::Injected { .. } | TraceEvent::Refused { .. } => now -= 1,
            _ => {}
        }
        peak = peak.max(now);
    }
    peak
}

#[test]
fn saturated_source_queues_cost_20_bytes_a_message() {
    let g = Geometry::new(4, 3);
    let tmin = Arc::new(build_unidir(g, UnidirKind::Cube, 1));
    let wl = uniform(4, 3, 0.7);
    let run = |measure: u64, st: &mut EngineState| {
        let cfg = EngineConfig { warmup: 0, measure, ..EngineConfig::default() };
        let net = CompiledNet::new(tmin.clone(), cfg).unwrap();
        let report = net.run_observed(Traffic::Poisson(&wl), None, 5, st).unwrap();
        (st.approx_bytes(), peak_queued(&report))
    };
    // The longer run is the shorter one continued (same seed): past the
    // packet table's high water, it grows by its queues alone.
    let (short_bytes, short_peak) = run(1_500, &mut EngineState::new());
    let mut st = EngineState::new();
    let (bytes, peak) = run(6_000, &mut st);
    let msgs = peak - short_peak;
    assert!(msgs > 4 * 256, "the queues grew by {msgs} messages, not several chunks");
    // 20 B a message plus one partly filled chunk, and the chunk table's
    // 8 B a chunk, doubled by its growth.
    let allowed = 20 * msgs + 20 * 256 + 16 * peak.div_ceil(256);
    assert!(
        bytes - short_bytes <= allowed,
        "{} B more for {msgs} more messages queued at once (allowed {allowed})",
        bytes - short_bytes
    );
    // The same saturated run again on the same state: no chunk beyond
    // the first run's high water.
    assert_eq!(run(6_000, &mut st), (bytes, peak));
}

/// Script, Poisson, chain and Poisson again on one state, traced: each
/// equals the same run on a fresh state. Only script and chain messages
/// carry tags, and a Poisson run reuses the queue slots a tagged run
/// wrote, so a tag left behind would show in its trace.
#[test]
fn tagged_and_untagged_runs_share_a_state_bit_identically() {
    let g = Geometry::new(4, 2);
    let nodes = g.nodes();
    let cfg = EngineConfig { warmup: 0, measure: 3_000, ..EngineConfig::default() };
    let net = CompiledNet::new(Arc::new(build_unidir(g, UnidirKind::Cube, 1)), cfg).unwrap();
    // Bursts at a few sources queue hundreds of messages at once.
    let script: Vec<ScriptedMsg> = (0..400u32)
        .map(|i| {
            let src = i % 4;
            ScriptedMsg { time: u64::from(i / 8), src, dst: (src + 1 + i % 15) % nodes, len: 4 }
        })
        .collect();
    let script = Script::compile(g, &script).unwrap();
    let chain: Vec<ChainedMsg> = (0..300u32)
        .map(|i| {
            let src = i % 3;
            let after = (i >= 100).then(|| (i - 100) as usize);
            ChainedMsg { src, dst: (src + 1 + i % 15) % nodes, len: 4, earliest: 0, after }
        })
        .collect();
    let chain = Chain::compile(g, &chain, 2).unwrap();
    let poisson = uniform(4, 2, 0.6);
    let runs = [
        ("script", Traffic::Script(&script)),
        ("poisson", Traffic::Poisson(&poisson)),
        ("chain", Traffic::Chain(&chain)),
        ("poisson after a chain", Traffic::Poisson(&poisson)),
    ];
    let mut st = EngineState::new();
    for (what, traffic) in runs {
        let got = net.run_observed(traffic, None, 9, &mut st).unwrap();
        let want = net.run_observed(traffic, None, 9, &mut EngineState::new()).unwrap();
        assert!(got.delivered_packets > 100 && got.trace.is_some(), "{what}");
        assert!(got.bitwise_eq(&want), "{what} on a reused state");
    }
}
