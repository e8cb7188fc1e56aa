//! The engine-state byte budget, held as code.
//!
//! `EngineState` is the last O(network) allocation of a run. Its budget
//! is **14 bytes a lane** at any `buffer_depth` (owner 4 + packed
//! upstream 4 + downstream 4 + buffer occupancy 2 — a buffer is a
//! counter, no flit is stored) and **under 32 bytes a node** (injector 4
//! + next arrival 8 + queue head / tail / length 12) plus the shared
//! message slab; the VC-multiplexer byte a channel exists only when `vcs
//! > 1`, and a `vcs` that is not a power of two pays for the pad planes
//! of its lane group. These tests pin the budget, that arrays which come
//! and go with the configuration leave no residue in the results, and
//! that a pooled state gives a large network's memory back.

use minnet_sim::{CompiledNet, EngineConfig, EngineState, SimReport, TransmitOrder};
use minnet_topology::{build_bmin, Geometry};
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

/// A 300-cycle burst at load 0.1 on the 16 384-terminal BMIN; returns the
/// state's footprint, the lane count and the node count.
fn burst_16k(cfg: EngineConfig, st: &mut EngineState) -> (usize, usize, usize) {
    let lanes_per_channel = cfg.vcs as usize;
    let net = bmin(4, 7, cfg);
    let report = net.run_poisson(&uniform(4, 7, 0.1), 42, st).unwrap();
    assert!(report.generated_packets > 1_000, "the burst must load the network");
    let g = net.network();
    (st.approx_bytes(), g.num_channels() * lanes_per_channel, g.geometry.nodes() as usize)
}

#[test]
fn footprint_budget() {
    let mut st = EngineState::new();
    let (bytes, lanes, nodes) = burst_16k(burst(1, 1), &mut st);
    assert_eq!((lanes, nodes), (229_376, 16_384));
    assert!(
        bytes <= 14 * lanes + 32 * nodes + MIB,
        "vcs 1, depth 1: {bytes} B for {lanes} lanes, {nodes} nodes"
    );
    // Two lanes a channel, four-flit buffers: depth costs nothing, and
    // each channel gains its multiplexer byte — 14.5 B a lane.
    let (bytes, lanes, nodes) = burst_16k(burst(2, 4), &mut EngineState::new());
    assert!(
        bytes <= 15 * lanes + 32 * nodes + MIB,
        "vcs 2, depth 4: {bytes} B for {lanes} lanes, {nodes} nodes"
    );
}

#[test]
fn pooled_state_footprint_shrinks_after_a_large_run() {
    let small = bmin(4, 3, EngineConfig { warmup: 200, measure: 2_000, ..EngineConfig::default() });
    let wl = uniform(4, 3, 0.4);
    let mut fresh = EngineState::new();
    let want = small.run_poisson(&wl, 7, &mut fresh).unwrap();

    let mut pooled = EngineState::new();
    let (big, ..) = burst_16k(burst(1, 1), &mut pooled);
    let got = small.run_poisson(&wl, 7, &mut pooled).unwrap();
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
        bmin(4, 3, cfg.clone()).run_poisson(&uniform(4, 3, 0.4), 11, st).unwrap()
    };
    let base = EngineConfig { warmup: 200, measure: 3_000, ..EngineConfig::default() };
    let first = base.clone();
    let steps = [
        first.clone(),
        EngineConfig { vcs: 2, ..base.clone() },
        EngineConfig { buffer_depth: 4, ..base.clone() },
        EngineConfig { vcs: 3, transmit_order: TransmitOrder::BuildOrder, ..base.clone() },
        first,
    ];
    // The multiplexer bytes, the pad planes and the slab free list come
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
