//! Fault-layer integration tests.
//!
//! The two load-bearing properties:
//!
//! 1. **The fast path is untouched.** An *empty* fault plan must produce
//!    bit-identical reports to the plain faultless entry points, across
//!    all four network designs and both Poisson and scripted traffic —
//!    the fault layer is pay-for-what-you-use.
//! 2. **Degradation is graceful and structured.** A single dead
//!    inter-stage link in a BMIN (which keeps path diversity) still
//!    delivers every packet; in a TMIN (unique paths) the disconnected
//!    traffic is refused with accounting; a network wedged on purpose
//!    trips the no-progress watchdog with a diagnostic instead of
//!    hanging.

use minnet_sim::{
    Chain, ChainedMsg, CompiledNet, EngineConfig, EngineState, RunBudget, ScriptedMsg, SimError,
    Traffic, engine::Script,
};
use minnet_topology::{
    build_bmin, build_unidir, Fault, FaultPlan, FaultTarget, Geometry, NetworkGraph, UnidirKind,
};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum NetChoice {
    Tmin,
    Dmin,
    Vmin,
    Bmin,
}

fn build(choice: NetChoice, g: Geometry) -> (NetworkGraph, u8) {
    match choice {
        NetChoice::Tmin => (build_unidir(g, UnidirKind::Cube, 1), 1),
        NetChoice::Dmin => (build_unidir(g, UnidirKind::Cube, 2), 1),
        NetChoice::Vmin => (build_unidir(g, UnidirKind::Cube, 1), 2),
        NetChoice::Bmin => (build_bmin(g), 1),
    }
}

fn compiled(choice: NetChoice, g: Geometry, cfg: EngineConfig) -> CompiledNet {
    let (net, vcs) = build(choice, g);
    let cfg = EngineConfig { vcs, ..cfg };
    CompiledNet::new(Arc::new(net), cfg).unwrap()
}

fn uniform_workload(g: Geometry, load: f64) -> Workload {
    let spec = WorkloadSpec {
        offered_load: load,
        pattern: TrafficPattern::Uniform,
        clustering: Clustering::Global,
        rates: None,
        sizes: MessageSizeDist::Fixed(16),
    };
    Workload::compile(g, &spec).unwrap()
}

fn inter_stage_channels(net: &NetworkGraph) -> Vec<u32> {
    (0..net.num_channels() as u32)
        .filter(|&c| {
            let ch = net.channel(c);
            ch.src.switch().is_some() && ch.dst.switch().is_some()
        })
        .collect()
}

fn scripted(g: Geometry, raw: &[(u64, u32, u32, u32)]) -> Script {
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
    Script::compile(g, &msgs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Property 1, Poisson half: an empty `FaultPlan` compiles to a
    // trivial schedule the engine normalises away — bit-identical to the
    // plain path, for every network design.
    #[test]
    fn empty_plan_is_bitwise_identical_poisson(
        choice in prop_oneof![
            Just(NetChoice::Tmin), Just(NetChoice::Dmin),
            Just(NetChoice::Vmin), Just(NetChoice::Bmin),
        ],
        load in 0.05f64..0.5,
        seed in 0u64..1000,
    ) {
        let g = Geometry::new(4, 2);
        let cfg = EngineConfig { warmup: 200, measure: 2_000, ..EngineConfig::default() };
        let net = compiled(choice, g, cfg);
        let wl = uniform_workload(g, load);
        let faults = net.compile_faults(&FaultPlan::new()).unwrap();
        prop_assert!(faults.is_trivial());
        let mut st = EngineState::new();
        let plain = net.run(Traffic::Poisson(&wl), None, seed, &mut st).unwrap();
        let faulted = net.run(Traffic::Poisson(&wl), Some(&faults), seed, &mut st).unwrap();
        prop_assert!(plain.bitwise_eq(&faulted), "empty plan changed a {choice:?} run");
    }

    // Property 1, scripted half.
    #[test]
    fn empty_plan_is_bitwise_identical_scripted(
        choice in prop_oneof![
            Just(NetChoice::Tmin), Just(NetChoice::Dmin),
            Just(NetChoice::Vmin), Just(NetChoice::Bmin),
        ],
        raw in proptest::collection::vec((0u64..200, 0u32..64, 0u32..64, 1u32..64), 1..16),
        seed in 0u64..1000,
    ) {
        let g = Geometry::new(4, 2);
        let cfg = EngineConfig { warmup: 0, measure: 1_000_000, ..EngineConfig::default() };
        let net = compiled(choice, g, cfg);
        let script = scripted(g, &raw);
        let faults = net.compile_faults(&FaultPlan::new()).unwrap();
        let mut st = EngineState::new();
        let plain = net.run(Traffic::Script(&script), None, seed, &mut st).unwrap();
        let faulted = net.run(Traffic::Script(&script), Some(&faults), seed, &mut st).unwrap();
        prop_assert!(plain.bitwise_eq(&faulted), "empty plan changed a {choice:?} run");
    }

    // Property 2, BMIN half: *any* single inter-stage link fault leaves
    // the BMIN fully connected (every stage-0 switch keeps k-1 live
    // parents), so every scripted message is still delivered.
    #[test]
    fn bmin_delivers_everything_under_any_single_link_fault(
        victim_idx in 0usize..1000,
        raw in proptest::collection::vec((0u64..200, 0u32..64, 0u32..64, 1u32..64), 1..16),
        seed in 0u64..1000,
    ) {
        let g = Geometry::new(4, 2);
        let cfg = EngineConfig { warmup: 0, measure: 1_000_000, ..EngineConfig::default() };
        let net = compiled(NetChoice::Bmin, g, cfg);
        let pool = inter_stage_channels(net.network());
        let victim = pool[victim_idx % pool.len()];
        let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(victim)));
        let faults = net.compile_faults(&plan).unwrap();
        prop_assert!(!faults.is_trivial());
        let script = scripted(g, &raw);
        let mut st = EngineState::new();
        let report = net.run(Traffic::Script(&script), Some(&faults), seed, &mut st).unwrap();
        let n_msgs = raw.len();
        prop_assert_eq!(report.undeliverable_packets, 0, "channel {} disconnected a BMIN", victim);
        prop_assert_eq!(report.deliveries.unwrap().len(), n_msgs);
        prop_assert_eq!(report.in_flight_at_end, 0);
    }
}

/// Property 2, TMIN half: unique paths mean a dead inter-stage link
/// disconnects some (src, dst) pairs. The run must terminate normally,
/// keep delivering the connected traffic, and report the rest as
/// structured refusals — never panic, never hang.
#[test]
fn tmin_reports_structured_disconnection() {
    let g = Geometry::new(4, 3);
    let cfg = EngineConfig { warmup: 100, measure: 4_000, ..EngineConfig::default() };
    let net = compiled(NetChoice::Tmin, g, cfg);
    let victim = inter_stage_channels(net.network())[0];
    let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(victim)));
    let faults = net.compile_faults(&plan).unwrap();
    let wl = uniform_workload(g, 0.3);
    let mut st = EngineState::new();
    let report = net.run(Traffic::Poisson(&wl), Some(&faults), 7, &mut st).unwrap();
    assert!(report.delivered_packets > 0, "connected pairs must keep flowing");
    assert!(
        report.undeliverable_packets > 0,
        "uniform traffic must hit a disconnected pair"
    );
    assert_eq!(report.aborted_packets, 0, "a cycle-0 fault catches no worm mid-flight");
}

/// A transient fault aborts the worms it catches mid-flight, refuses the
/// unreachable traffic during the outage, and lets traffic flow again
/// after repair — scripted, so each phase is pinned.
#[test]
fn transient_fault_aborts_refuses_then_recovers() {
    let g = Geometry::new(4, 2);
    let cfg = EngineConfig {
        warmup: 0,
        measure: 50_000,
        ..EngineConfig::default()
    };
    let net = compiled(NetChoice::Tmin, g, cfg.clone());

    // Find the path of a long faultless worm, then fault its middle hop.
    let probe = Script::compile(
        g,
        &[ScriptedMsg { time: 0, src: 0, dst: g.nodes() - 1, len: 3_000 }],
    )
    .unwrap();
    let mut st = EngineState::new();
    let clean = net.run_observed(Traffic::Script(&probe), None, 7, &mut st).unwrap();
    let path = clean.trace.as_ref().unwrap().channel_path(0);
    let victim = path[path.len() / 2];

    // The worm streams over [0, ~3000]; the fault hits at 1000 and heals
    // at 5000. A second identical message becomes available at 10_000,
    // safely after repair.
    let script = Script::compile(
        g,
        &[
            ScriptedMsg { time: 0, src: 0, dst: g.nodes() - 1, len: 3_000 },
            ScriptedMsg { time: 2_000, src: 0, dst: g.nodes() - 1, len: 8 },
            ScriptedMsg { time: 10_000, src: 0, dst: g.nodes() - 1, len: 8 },
        ],
    )
    .unwrap();
    let plan = FaultPlan::new().with(Fault::transient(FaultTarget::Channel(victim), 1_000, 5_000));
    let faults = net.compile_faults(&plan).unwrap();
    let report = net.run(Traffic::Script(&script), Some(&faults), 7, &mut st).unwrap();

    assert_eq!(report.aborted_packets, 1, "the streaming worm is caught at onset");
    assert_eq!(
        report.undeliverable_packets, 1,
        "the mid-outage message is refused"
    );
    let deliveries = report.deliveries.unwrap();
    assert_eq!(deliveries.len(), 1, "only the post-repair message completes");
    assert_eq!(deliveries[0].gen_time, 10_000);
    assert_eq!(report.in_flight_at_end, 0);
}

/// A chain under faults does not drain: only a delivery releases a
/// dependent, so a root refused as undeliverable holds its dependent back
/// for good and the run goes on to the horizon. `golden_v1.txt`'s `chain
/// permanent` rows rest on this.
#[test]
fn refused_chain_root_never_releases_its_dependent() {
    let g = Geometry::new(4, 2);
    let cfg = EngineConfig {
        warmup: 0,
        measure: 5_000,
        ..EngineConfig::default()
    };
    let net = compiled(NetChoice::Tmin, g, cfg);
    let dst = g.nodes() - 1;
    let probe = Script::compile(g, &[ScriptedMsg { time: 0, src: 0, dst, len: 8 }]).unwrap();
    let mut st = EngineState::new();
    let clean = net.run_observed(Traffic::Script(&probe), None, 7, &mut st).unwrap();
    let path = clean.trace.as_ref().unwrap().channel_path(0);
    // A TMIN has one path per pair: killing its middle hop for good
    // leaves the root none.
    let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(path[path.len() / 2])));
    let faults = net.compile_faults(&plan).unwrap();
    let chain = Chain::compile(
        g,
        &[
            ChainedMsg { src: 0, dst, len: 8, earliest: 0, after: None },
            ChainedMsg { src: dst, dst: 0, len: 8, earliest: 0, after: Some(0) },
        ],
        0,
    )
    .unwrap();
    let report = net.run(Traffic::Chain(&chain), Some(&faults), 7, &mut st).unwrap();
    assert_eq!(report.cycles, 5_000, "the run goes on to warmup + measure");
    assert_eq!(report.undeliverable_packets, 1, "the root is refused");
    assert_eq!(report.generated_packets, 1, "the dependent is never released");
    assert_eq!(report.deliveries.unwrap().len(), 0, "nothing is delivered");
}

/// The watchdog: with packet aborts disabled (test knob), a worm wedged on
/// a dead lane stalls the drain forever — the engine must return a
/// structured [`SimError::NoProgress`] naming the stalled packet and its
/// held channels, not hang.
#[test]
fn watchdog_fires_with_diagnostic_on_wedged_network() {
    let g = Geometry::new(4, 2);
    let cfg = EngineConfig {
        warmup: 0,
        measure: 1_000_000,
        fault_abort: false,
        watchdog_window: 500,
        ..EngineConfig::default()
    };
    let net = compiled(NetChoice::Tmin, g, cfg);
    let dst = g.nodes() - 1;
    let script = Script::compile(
        g,
        &[ScriptedMsg { time: 0, src: 0, dst, len: 3_000 }],
    )
    .unwrap();
    let mut st = EngineState::new();
    let clean = net.run_observed(Traffic::Script(&script), None, 7, &mut st).unwrap();
    let path = clean.trace.as_ref().unwrap().channel_path(0);
    let victim = path[path.len() / 2];

    let plan = FaultPlan::new().with(Fault::transient(FaultTarget::Channel(victim), 100, u64::MAX));
    let faults = net.compile_faults(&plan).unwrap();
    match net.run(Traffic::Script(&script), Some(&faults), 7, &mut st) {
        Err(SimError::NoProgress(diag)) => {
            assert_eq!(diag.window, 500);
            assert!(diag.cycle >= 100 + 500, "cannot trip before onset + window");
            assert_eq!(diag.stalled.len(), 1);
            assert_eq!(diag.stalled[0].src, 0);
            assert_eq!(diag.stalled[0].dst, dst);
            assert!(diag.stalled[0].sent < 3_000, "the worm must be caught mid-stream");
            assert!(!diag.held_channels.is_empty());
            assert!(
                diag.held_channels.contains(&victim),
                "the dead channel {victim} is among the held ones {:?}",
                diag.held_channels
            );
            // A single wedged worm waits on a dead lane, not on another
            // packet — there is no cycle to report.
            assert!(diag.suspected_cycle.is_none());
        }
        other => panic!("expected a watchdog trip, got {other:?}"),
    }
}

/// A state an early exit left behind runs the next job as a fresh one
/// would. A campaign worker reuses its state after a budget cut, a
/// watchdog trip or a faulted run (a retry, or its next task), so each
/// exit is followed by a healthy Poisson run on the same state — at one
/// lane and at two — which must equal the same run on a fresh state.
#[test]
fn state_reused_after_an_early_exit_runs_bit_identically() {
    let g = Geometry::new(4, 2);
    let dst = g.nodes() - 1;
    let healthy = |vcs: u8, st: &mut EngineState| {
        let cfg = EngineConfig { vcs, warmup: 200, measure: 2_000, ..EngineConfig::default() };
        let report = compiled(NetChoice::Tmin, g, cfg)
            .run(Traffic::Poisson(&uniform_workload(g, 0.3)), None, 11, st)
            .unwrap();
        assert!(report.delivered_packets > 0);
        report
    };
    let fresh = [healthy(1, &mut EngineState::new()), healthy(2, &mut EngineState::new())];

    // A Poisson run cut by its cycle budget mid-flight.
    let budget = RunBudget { max_cycles: 1_500, ..RunBudget::default() };
    let cut_cfg = EngineConfig { measure: 50_000, budget, ..EngineConfig::default() };
    let cut = compiled(NetChoice::Tmin, g, cut_cfg);
    let budget_cut = |st: &mut EngineState| {
        match cut.run(Traffic::Poisson(&uniform_workload(g, 0.5)), None, 3, st) {
            Err(SimError::BudgetExceeded(partial)) => assert_eq!(partial.spent_cycles, 1_500),
            other => panic!("expected a budget cut, got {:?}", other.map(drop)),
        }
    };
    // The wedge of `watchdog_fires_with_diagnostic_on_wedged_network`.
    let wedge_cfg = EngineConfig {
        warmup: 0,
        measure: 1_000_000,
        fault_abort: false,
        watchdog_window: 500,
        ..EngineConfig::default()
    };
    let wedge = compiled(NetChoice::Tmin, g, wedge_cfg);
    let long = Script::compile(g, &[ScriptedMsg { time: 0, src: 0, dst, len: 3_000 }]).unwrap();
    let clean = wedge.run_observed(Traffic::Script(&long), None, 7, &mut EngineState::new()).unwrap();
    let path = clean.trace.as_ref().unwrap().channel_path(0);
    let victim = FaultTarget::Channel(path[path.len() / 2]);
    let stuck = FaultPlan::new().with(Fault::transient(victim, 100, u64::MAX));
    let stuck = wedge.compile_faults(&stuck).unwrap();
    let watchdog_trip = |st: &mut EngineState| {
        match wedge.run(Traffic::Script(&long), Some(&stuck), 7, st) {
            Err(SimError::NoProgress(_)) => {}
            other => panic!("expected a watchdog trip, got {:?}", other.map(drop)),
        }
    };
    // The outage of `transient_fault_aborts_refuses_then_recovers`.
    let outage_cfg = EngineConfig { warmup: 0, measure: 50_000, ..EngineConfig::default() };
    let outage = compiled(NetChoice::Tmin, g, outage_cfg);
    let script = Script::compile(
        g,
        &[
            ScriptedMsg { time: 0, src: 0, dst, len: 3_000 },
            ScriptedMsg { time: 2_000, src: 0, dst, len: 8 },
            ScriptedMsg { time: 10_000, src: 0, dst, len: 8 },
        ],
    )
    .unwrap();
    let transient = FaultPlan::new().with(Fault::transient(victim, 1_000, 5_000));
    let transient = outage.compile_faults(&transient).unwrap();
    let fault_epoch = |st: &mut EngineState| {
        let report = outage.run(Traffic::Script(&script), Some(&transient), 7, st).unwrap();
        assert_eq!((report.aborted_packets, report.undeliverable_packets), (1, 1));
    };

    let mut st = EngineState::new();
    let mut after = |what: &str, exit: &dyn Fn(&mut EngineState)| {
        for (vcs, want) in [1, 2].into_iter().zip(&fresh) {
            exit(&mut st);
            assert!(healthy(vcs, &mut st).bitwise_eq(want), "vcs {vcs} after {what}");
        }
    };
    after("a budget cut", &budget_cut);
    after("a watchdog trip", &watchdog_trip);
    after("a fault epoch", &fault_epoch);
}

/// The watchdog never fires on a healthy (faultless) network, even with
/// an aggressively small window: some flit moves every cycle whenever
/// worms are in flight.
#[test]
fn watchdog_is_silent_on_healthy_runs() {
    let g = Geometry::new(4, 2);
    let cfg = EngineConfig {
        warmup: 100,
        measure: 3_000,
        watchdog_window: 1,
        ..EngineConfig::default()
    };
    for choice in [NetChoice::Tmin, NetChoice::Dmin, NetChoice::Vmin, NetChoice::Bmin] {
        let net = compiled(choice, g, cfg.clone());
        let wl = uniform_workload(g, 0.4);
        let mut st = EngineState::new();
        net.run(Traffic::Poisson(&wl), None, 7, &mut st)
            .unwrap_or_else(|e| panic!("{choice:?}: spurious watchdog trip: {e}"));
    }
}

/// One routing representation at every size: the 1024- and
/// 16 384-terminal BMINs compile a table of a few kilobytes / a third of
/// a megabyte. At 16k the default `route_table_max_cells` refuses a fault
/// plan with a typed routing error *before* allocating its
/// 3.7-billion-cell masked table (the test would not come back
/// otherwise), and the same compiled network still runs healthy traffic.
#[test]
fn large_bmins_compile_a_small_table_and_16k_refuses_faults_up_front() {
    let cfg = EngineConfig { warmup: 20, measure: 100, ..EngineConfig::default() };
    let small = compiled(NetChoice::Bmin, Geometry::new(4, 5), cfg.clone());
    let bytes = small.routes().expect("every compiled network has a table").approx_bytes();
    assert!(bytes < 64 << 10, "1024-node BMIN table owns {bytes} B");

    let g = Geometry::new(4, 7);
    let net = compiled(NetChoice::Bmin, g, cfg);
    let bytes = net.routes().expect("16k terminals included").approx_bytes();
    assert!(bytes < 1 << 20, "16k-node BMIN table owns {bytes} B");
    let victim = inter_stage_channels(net.network())[0];
    let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(victim)));
    match net.compile_faults(&plan) {
        Err(SimError::Routing(msg)) => assert!(msg.contains("route_table_max_cells"), "{msg}"),
        other => panic!("expected a routing refusal, got {:?}", other.map(drop)),
    }
    let report = net
        .run(Traffic::Poisson(&uniform_workload(g, 0.05)), None, 7, &mut EngineState::new())
        .unwrap();
    assert_eq!(report.cycles, 120);
    assert!(report.generated_packets > 0);
}
