//! Determinism contract **v1**, frozen as data.
//!
//! `golden_v1.txt` holds one FNV-1a line per row of a fixed grid —
//! networks × engine variant (fault schedule × buffer depth, plus a
//! one-cell-cap ("logic") and a budget-cut variant) × traffic — hashed
//! over the run's whole outcome: every [`SimReport`] field (delivery log
//! included, and the channel utilization and event trace of an observed
//! run: every row is one, on both engines), or the full
//! `StallDiagnostic` / `PartialReport` when the run ends in a watchdog
//! trip or a budget cut.
//!
//! The `rt` rows (the paper's reverse-topological transmit order) are
//! run by the engine. The `bo` rows — the channel-id order ablation —
//! are run by the `reference` engine, the only one that still has that
//! order, with the same hashes the engine recorded when it had it: the
//! healthy ones only, since the reference engine has no fault layer (the
//! faulted `bo` rows were dropped with the engine's build-order kernel).
//! The test therefore needs the `reference-engine` feature, which the
//! manifest requires, and it counts the rows it checked.
//!
//! The file was recorded with the engine's scalar allocate/transmit path
//! forced, at the last commit that had one, and with the "logic" rows
//! routed per hop through `RouteLogic` (the engine's second routing mode
//! at the time; the route table must reproduce them). It is the
//! differential cover for everything `reference.rs` cannot run (fault
//! epochs, budget cuts). A mismatch prints the
//! whole actual file; re-recording is a deliberate copy of that output
//! over `golden_v1.txt` and amounts to opening contract v2.

use minnet_sim::reference::{self, Ablation, TransmitOrder};
use minnet_sim::{
    Chain, ChainedMsg, CompiledNet, EngineConfig, EngineState, RunBudget, Script, ScriptedMsg,
    SimError, SimReport, Traffic,
};
use minnet_topology::{
    build_bmin, build_unidir, Fault, FaultPlan, FaultTarget, Geometry, NetworkGraph, UnidirKind,
};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden_v1.txt");
const SEED: u64 = 1995;
/// The chained fixture's relay overhead.
const OVERHEAD: u64 = 20;

/// One grid row's outcome as `"<kind> <fnv-1a hex>"`.
fn outcome(res: &Result<SimReport, SimError>) -> String {
    let (kind, report) = match res {
        Ok(r) => ("ok", Some(r)),
        Err(SimError::NoProgress(_)) => ("stall", None),
        Err(SimError::BudgetExceeded(p)) => ("cut", Some(&p.report)),
        Err(e) => panic!("golden grid row failed outright: {e}"),
    };
    // Every field through `Debug` (the whole tree derives it: counters,
    // flags, delivery log, trace, stall diagnostic), then the floats a
    // second time by bit pattern, which `Debug` does not promise to keep.
    let mut bytes = format!("{res:?}").into_bytes();
    if let Some(r) = report {
        let floats = [
            r.offered_flits_per_node_cycle,
            r.accepted_flits_per_node_cycle,
            r.mean_latency_cycles,
            r.latency_ci95_cycles,
            r.mean_queue,
        ];
        for f in floats.iter().chain(r.channel_utilization.iter().flatten()) {
            bytes.extend(f.to_bits().to_le_bytes());
        }
    }
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{kind} {hash:016x}")
}

/// The dense script of `tests/engine_equivalence.rs`: staggered
/// neighbour traffic plus long cross traffic, overlapping in time.
fn script(g: Geometry) -> Script {
    let n = g.nodes();
    let mut msgs = Vec::new();
    for i in 0..n {
        msgs.push(ScriptedMsg { time: u64::from(i % 7) * 3, src: i, dst: (i + 1) % n, len: 4 + i % 5 });
        if i % 3 == 0 {
            msgs.push(ScriptedMsg { time: 10 + u64::from(i), src: i, dst: (i + n / 2) % n, len: 16 });
        }
    }
    Script::compile(g, &msgs).unwrap()
}

/// The chained fixture of `tests/engine_equivalence.rs`: a binomial
/// relay tree from node 0 plus staggered background roots.
fn chain(g: Geometry) -> Chain {
    let n = g.nodes();
    let mut msgs = vec![
        ChainedMsg { src: 0, dst: 1, len: 8, earliest: 0, after: None },
        ChainedMsg { src: 0, dst: n / 2, len: 8, earliest: 0, after: None },
    ];
    let mut i = 0;
    while i < msgs.len() && msgs.len() < 16 {
        let relay = msgs[i].dst;
        let next = (relay * 2 + 3) % n;
        if next != relay {
            msgs.push(ChainedMsg { src: relay, dst: next, len: 6, earliest: 5, after: Some(i) });
        }
        i += 1;
    }
    for i in (3..n).step_by(7) {
        msgs.push(ChainedMsg { src: i, dst: (i + 5) % n, len: 12, earliest: u64::from(i), after: None });
    }
    Chain::compile(g, &msgs, OVERHEAD).unwrap()
}

fn actual() -> String {
    let g = Geometry::new(4, 3);
    let cube = |dilation| build_unidir(g, UnidirKind::Cube, dilation);
    // The paper's four networks, then the cube wiring at 3 and 4 lanes.
    let nets = [
        ("tmin", cube(1), 1),
        ("dmin", cube(2), 1),
        ("vmin", cube(1), 2),
        ("bmin", build_bmin(g), 1),
        ("cube-vc3", cube(1), 3),
        ("cube-vc4", cube(1), 4),
    ];
    // Short fixed-size messages keep hundreds of worms crossing every
    // link inside the short window, so each fault schedule bites.
    let poisson = [0.1, 0.4, 0.7].map(|load| {
        let spec = WorkloadSpec {
            offered_load: load,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::Fixed(16),
        };
        Workload::compile(g, &spec).unwrap()
    });
    let (scripted, chained) = (script(g), chain(g));
    let traffics = [
        ("poisson-0.1", Traffic::Poisson(&poisson[0])),
        ("poisson-0.4", Traffic::Poisson(&poisson[1])),
        ("poisson-0.7", Traffic::Poisson(&poisson[2])),
        ("script", Traffic::Script(&scripted)),
        ("chain", Traffic::Chain(&chained)),
    ];
    let mut st = EngineState::new(); // one state across the whole grid
    let mut out = String::new();
    for (name, graph, vcs) in nets {
        let graph = Arc::new(graph);
        let links: Vec<u32> = (0..graph.num_channels() as u32)
            .filter(|&c| {
                let ch = graph.channel(c);
                ch.src.switch().is_some() && ch.dst.switch().is_some()
            })
            .collect();
        let plan = |step: usize, skip: usize, onset: u64, repair: Option<u64>| {
            let dead = links.iter().skip(skip).step_by(step);
            dead.fold(FaultPlan::new(), |p, &c| {
                p.with(Fault { target: FaultTarget::Channel(c), onset, repair })
            })
        };
        // `transient`: one outage early enough for the finite fixtures,
        // one later across the Poisson window. `wedge` runs with
        // `fault_abort` off and a short watchdog: worms caught on a dead
        // link stay put, and a finite run ends in a watchdog trip.
        let mut transient = plan(9, 0, 30, Some(90));
        plan(11, 1, 400, Some(800)).faults().iter().for_each(|&f| transient.push(f));
        let faults = [
            ("nofault", None),
            ("permanent", Some(plan(13, 0, 0, None))),
            ("transient", Some(transient)),
            ("wedge", Some(plan(7, 0, 25, Some(u64::MAX)))),
        ];
        // The window opens mid-script, so both fixtures straddle it.
        let base = EngineConfig {
            vcs,
            warmup: 40,
            measure: 1_360,
            ..EngineConfig::default()
        };
        let mut variants = Vec::new();
        for (order, reference) in [("rt", false), ("bo", true)] {
            for buffer_depth in [1u16, 3] {
                for (fault, plan) in &faults {
                    // The reference engine has no fault layer.
                    if reference && plan.is_some() {
                        continue;
                    }
                    let wedge = *fault == "wedge";
                    let cfg = EngineConfig {
                        buffer_depth,
                        fault_abort: !wedge,
                        watchdog_window: if wedge { 150 } else { 10_000 },
                        ..base.clone()
                    };
                    let variant = format!("{fault} {order} depth{buffer_depth}");
                    variants.push((variant, cfg, plan.as_ref(), reference));
                }
            }
        }
        // A one-cell `route_table_max_cells`, and a deterministic budget
        // cut in the middle of the measurement window. The rows keep the
        // label "logic": when the file was recorded that cap routed every
        // hop through `RouteLogic`; it now bounds only fault-epoch tables
        // and a healthy run must not see it.
        let logic = EngineConfig { route_table_max_cells: 1, ..base.clone() };
        let budget = RunBudget { max_cycles: 700, max_wall_ms: 0 };
        variants.push(("logic rt depth1".into(), logic, None, false));
        variants.push(("budget rt depth1".into(), EngineConfig { budget, ..base }, None, false));
        for (variant, cfg, plan, reference) in variants {
            if reference {
                let cfg = EngineConfig { seed: SEED, ..cfg };
                for &(traffic, source) in &traffics {
                    let res = Ok(build_order(&graph, source, &cfg));
                    writeln!(out, "{name} {traffic} {variant} {}", outcome(&res)).unwrap();
                }
                continue;
            }
            let net = CompiledNet::new(Arc::clone(&graph), cfg).unwrap();
            let faults = plan.map(|p| net.compile_faults(p).unwrap());
            let faults = faults.as_ref();
            for &(traffic, source) in &traffics {
                let res = net.run_observed(source, faults, SEED, &mut st);
                writeln!(out, "{name} {traffic} {variant} {}", outcome(&res)).unwrap();
            }
        }
    }
    out
}

/// One healthy build-order row, observed, on the reference engine
/// (`cfg.seed` is the run's seed there).
fn build_order(graph: &NetworkGraph, source: Traffic<'_>, cfg: &EngineConfig) -> SimReport {
    let order = Ablation { order: TransmitOrder::BuildOrder, ..Ablation::PAPER };
    match source {
        Traffic::Poisson(wl) => reference::run_simulation(graph, wl, cfg, order, true),
        Traffic::Script(s) => reference::run_scripted(graph, s.msgs(), cfg, order, true),
        Traffic::Chain(c) => reference::run_chained(graph, c.msgs(), OVERHEAD, cfg, order, true),
    }
    .unwrap()
}

#[test]
fn golden_v1_grid_is_bit_stable() {
    let actual = actual();
    // 6 networks × 5 traffics × (8 fault × depth `rt` + logic + budget
    // engine rows, and 2 healthy `bo` rows on the reference engine).
    assert_eq!(actual.lines().count(), 6 * 5 * (10 + 2), "rows checked");
    let differing = actual.lines().zip(GOLDEN.lines()).filter(|(a, b)| a != b).count()
        + actual.lines().count().abs_diff(GOLDEN.lines().count());
    assert!(
        differing == 0,
        "determinism contract v1 broken: {differing} of {} rows differ from golden_v1.txt.\n\
         Actual file follows.\n{actual}",
        GOLDEN.lines().count(),
    );
}
