//! Engine ↔ oracle where the engine's packings bind: every other
//! differential runs the 64-terminal networks, where the arrival keys'
//! node field is 6 bits, a BMIN route 6 lanes and a route digit one of
//! three. Here the four paper networks run at radix 2, 8 and 16, and at
//! 1 024 and 4 096 terminals, and the BMIN at 16 384, observed — the
//! event trace and the channel utilization compared too — and must land
//! every bit where the scan-everything `reference` engine does. One size
//! adds scripted and faulted traffic and three lanes of depth three, and
//! the Poisson horizon is driven to the last cycle the arrival keys hold.
//!
//! The oracle costs seconds a run at 4 096 terminals and a minute at
//! 16 384, so the tests are `#[ignore]`d and run by their own CI step, in
//! release: `cargo test --release -p minnet-sim --features
//! reference-engine --test scale_differential -- --ignored`.

use minnet_routing::RouteTable;
use minnet_sim::reference::{self, Ablation};
use minnet_sim::{CompiledNet, EngineConfig, EngineState, RunBudget, Script, ScriptedMsg, SimError, Traffic};
use minnet_topology::{
    build_bmin, build_unidir, inter_stage_channels, Fault, FaultPlan, FaultTarget, Geometry, NetworkGraph,
    UnidirKind,
};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use std::sync::Arc;

const SEED: u64 = 0x5CA1E;

/// The four paper networks at `g`: name, graph, lanes.
fn lineup(g: Geometry) -> [(&'static str, NetworkGraph, u8); 4] {
    let cube = |dilation| build_unidir(g, UnidirKind::Cube, dilation);
    [("tmin", cube(1), 1), ("dmin", cube(2), 1), ("vmin", cube(1), 2), ("bmin", build_bmin(g), 1)]
}

fn uniform(g: Geometry, load: f64) -> Workload {
    let spec = WorkloadSpec {
        offered_load: load,
        pattern: TrafficPattern::Uniform,
        clustering: Clustering::Global,
        rates: None,
        sizes: MessageSizeDist::PAPER,
    };
    Workload::compile(g, &spec).unwrap()
}

fn window(vcs: u8) -> EngineConfig {
    EngineConfig { vcs, warmup: 1_000, measure: 4_000, seed: SEED, ..EngineConfig::default() }
}

/// Poisson traffic at load 0.3 on the four networks at every `(k, n)`.
#[test]
#[ignore = "seconds of oracle a run; a release CI step runs it"]
fn poisson_is_bit_identical_across_radices_and_sizes() {
    let mut st = EngineState::new();
    for (k, n) in [(2, 6), (8, 2), (16, 2), (2, 10), (4, 5), (4, 6)] {
        let g = Geometry::new(k, n);
        let wl = uniform(g, 0.3);
        for (name, graph, vcs) in lineup(g) {
            let cfg = window(vcs);
            let what = format!("{name} k {k} n {n} ({} terminals)", g.nodes());
            let refr = reference::run_simulation(&graph, &wl, &cfg, Ablation::PAPER, true).unwrap();
            let net = CompiledNet::new(Arc::new(graph), cfg).unwrap();
            let opt = net.run_observed(Traffic::Poisson(&wl), None, SEED, &mut st).unwrap();
            assert!(opt.delivered_packets > 0, "{what}: nothing delivered");
            assert!(opt.bitwise_eq(&refr), "{what}: engine and oracle diverge");
        }
    }
}

/// One window of the 16 384-terminal BMIN, the network of the scenario
/// library's largest burst: the arrival keys' node field at 14 bits and
/// a route of 14 lanes. The oracle takes ≈ 54 s over it on 2 vCPUs, the
/// engine ≈ 4 s.
#[test]
#[ignore = "seconds of oracle a run; a release CI step runs it"]
fn poisson_is_bit_identical_at_16384() {
    let g = Geometry::new(4, 7);
    let (graph, wl, cfg) = (build_bmin(g), uniform(g, 0.3), window(1));
    let refr = reference::run_simulation(&graph, &wl, &cfg, Ablation::PAPER, true).unwrap();
    let net = CompiledNet::new(Arc::new(graph), cfg).unwrap();
    let opt = net.run_observed(Traffic::Poisson(&wl), None, SEED, &mut EngineState::new()).unwrap();
    assert!(opt.delivered_packets > 0, "nothing delivered");
    assert!(opt.bitwise_eq(&refr), "bmin at 16 384 terminals: engine and oracle diverge");
}

/// At 1 024 terminals: a script among the lower half of the nodes; the
/// same script with a channel it never crosses dead (the oracle has no
/// fault layer, so the faulted run must still be its healthy one); and
/// Poisson traffic on three lanes of depth three.
#[test]
#[ignore = "seconds of oracle a run; a release CI step runs it"]
fn scripted_faulted_and_deep_lanes_are_bit_identical_at_1024() {
    let g = Geometry::new(4, 5);
    let nodes = g.nodes();
    let msgs: Vec<ScriptedMsg> = (0..3 * nodes / 2)
        .map(|i| {
            let src = i % (nodes / 2);
            let dst = (src * 37 + i / 7 + 1) % (nodes / 2);
            let dst = if dst == src { (dst + 1) % (nodes / 2) } else { dst };
            ScriptedMsg { time: u64::from(i % 97) * 11, src, dst, len: 4 + i % 60 }
        })
        .collect();
    let script = Script::compile(g, &msgs).unwrap();
    let cfg = EngineConfig { warmup: 0, measure: 1_000_000, seed: SEED, ..EngineConfig::default() };
    let mut st = EngineState::new();
    for (name, graph, vcs) in lineup(g) {
        let cfg = EngineConfig { vcs, ..cfg.clone() };
        let refr = reference::run_scripted(&graph, &msgs, &cfg, Ablation::PAPER, true).unwrap();
        let net = CompiledNet::new(Arc::new(graph), cfg).unwrap();
        let opt = net.run_observed(Traffic::Script(&script), None, SEED, &mut st).unwrap();
        assert_eq!(opt.delivered_packets as usize, msgs.len(), "{name}: the script must drain");
        assert!(opt.bitwise_eq(&refr), "{name} scripted: engine and oracle diverge");
    }

    // The TMIN's routes are unique: walk them to find an idle channel.
    let tmin = Arc::new(build_unidir(g, UnidirKind::Cube, 1));
    let routes = &RouteTable::build(&tmin).unwrap();
    let path = |src: u32, dst: u32| {
        std::iter::successors(Some(tmin.inject(src)), move |&at| routes.candidates(at, dst).first().copied())
    };
    let used: Vec<u32> = msgs.iter().flat_map(|m| path(m.src, m.dst)).collect();
    let idle = inter_stage_channels(&tmin).into_iter().find(|c| !used.contains(c)).unwrap();
    let net = CompiledNet::new(Arc::clone(&tmin), cfg.clone()).unwrap();
    let faults = net.compile_faults(&FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(idle))));
    let faults = faults.unwrap();
    assert!(!faults.is_trivial());
    let opt = net.run_observed(Traffic::Script(&script), Some(&faults), SEED, &mut st).unwrap();
    let refr = reference::run_scripted(&tmin, &msgs, &cfg, Ablation::PAPER, true).unwrap();
    assert!(opt.bitwise_eq(&refr), "tmin, channel {idle} dead: engine and oracle diverge");

    let deep = EngineConfig { vcs: 3, buffer_depth: 3, ..window(3) };
    let wl = uniform(g, 0.3);
    let refr = reference::run_simulation(&tmin, &wl, &deep, Ablation::PAPER, true).unwrap();
    let net = CompiledNet::new(tmin, deep).unwrap();
    let opt = net.run_observed(Traffic::Poisson(&wl), None, SEED, &mut st).unwrap();
    assert!(opt.bitwise_eq(&refr), "cube, vcs 3 depth 3: engine and oracle diverge");
}

/// The arrival key is `cycle << b | node`, `b` the bit width of the
/// largest node id, and a horizon past the cycle field is refused. At
/// 4 096 and 16 384 terminals (`b` = 12 and 14) the last horizon the
/// keys hold runs — cut by a cycle budget, its report a real sample —
/// and one cycle more is a `SimError::Config`.
#[test]
#[ignore = "seconds of oracle a run; a release CI step runs it"]
fn the_last_poisson_horizon_runs_and_one_more_is_refused() {
    for n in [6, 7] {
        let g = Geometry::new(4, n);
        let bits = u32::BITS - (g.nodes() - 1).leading_zeros();
        let limit = (u64::MAX >> bits) - 1;
        let wl = uniform(g, 0.3);
        let graph = Arc::new(build_bmin(g));
        let budget = RunBudget { max_cycles: 300, max_wall_ms: 0 };
        for (measure, fits) in [(limit, true), (limit + 1, false)] {
            let cfg = EngineConfig { warmup: 0, measure, budget, ..EngineConfig::default() };
            let net = CompiledNet::new(Arc::clone(&graph), cfg).unwrap();
            let what = format!("{} terminals, horizon {measure}", g.nodes());
            match net.run_observed(Traffic::Poisson(&wl), None, SEED, &mut EngineState::new()) {
                Err(SimError::BudgetExceeded(cut)) if fits => {
                    assert_eq!(cut.spent_cycles, 300, "{what}");
                    assert!(cut.report.generated_packets > 0 && cut.report.trace.is_some(), "{what}");
                }
                Err(SimError::Config(why)) if !fits => assert!(why.contains("arrival key"), "{what}: {why}"),
                other => panic!("{what}: {:?}", other.map(drop).map_err(|e| e.to_string())),
            }
        }
    }
}
