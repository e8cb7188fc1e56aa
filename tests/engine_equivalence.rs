//! Differential tests: the occupancy-scaled engine against the frozen
//! scan-everything reference (`minnet_sim::reference`, feature
//! `reference-engine`), and the compiled pipeline against both.
//!
//! The optimized engine's contract is **bit-identical** [`SimReport`]s —
//! every integer equal, every float equal down to its bit pattern
//! ([`SimReport::bitwise_eq`]) — for the same seed across all four
//! network kinds and all three traffic modes. Its active-set
//! bookkeeping (arrival/release heaps, injectable-source bitset,
//! occupied-channel sweep) must be pure scheduling: any reordered RNG
//! draw, dropped request, or skipped ready channel shows up here as a
//! diverging report.
//!
//! The compile-once path ([`CompiledNet`] + reused [`EngineState`],
//! routing through the precomputed [`minnet_routing::RouteTable`]) is
//! held to the same standard: every differential below runs it third,
//! *reusing one engine state across all networks and seeds*, so a table
//! cell that disagrees with [`minnet_routing::RouteLogic`] or a reset
//! path that leaks state across runs diverges here.

use minnet::NetworkSpec;
use minnet_routing::RouteTable;
use minnet_sim::{
    reference, run_chained, run_scripted, run_simulation, Chain, ChainedMsg, CompiledNet,
    EngineConfig, EngineState, Script, ScriptedMsg, SimReport, TraceEvent, TransmitOrder,
};
use minnet_topology::{inter_stage_channels, Fault, FaultPlan, FaultTarget, Geometry};
use minnet_traffic::{MessageSizeDist, Workload, WorkloadSpec};
use std::sync::Arc;

const SEEDS: [u64; 3] = [0x5EED, 0xD1FF_E7EA, 0xC0FF_EE00_0042];

fn cfg_for(spec: &NetworkSpec, seed: u64) -> EngineConfig {
    EngineConfig {
        vcs: spec.vcs(),
        warmup: 2_000,
        measure: 8_000,
        seed,
        collect_channel_util: true,
        ..EngineConfig::default()
    }
}

/// `(vcs, buffer_depth)` pairs each differential runs per network: the
/// network's own lane count at the paper's one-flit buffers and at
/// depth 3, then three lane counts that are not a power of two, so a
/// channel's lanes occupy a padded plane group in the engine's masks.
fn lanes_and_depths(spec: &NetworkSpec) -> [(u8, u16); 5] {
    [(spec.vcs(), 1), (spec.vcs(), 3), (3, 1), (5, 2), (6, 1)]
}

fn assert_identical(kind: &str, opt: &SimReport, refr: &SimReport) {
    assert!(
        opt.bitwise_eq(refr),
        "{kind}: optimized and reference reports diverge:\n  optimized: {opt:?}\n  reference: {refr:?}"
    );
}

/// Poisson traffic: moderate load, all four §5.3 networks, three seeds,
/// three engines (optimized, reference, compiled-with-reused-state).
#[test]
fn poisson_reports_are_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new(); // one state across ALL runs below
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));
        let wl = Workload::compile(g, &WorkloadSpec::global_uniform(0.35)).unwrap();
        for (vcs, buffer_depth) in lanes_and_depths(&spec) {
            let base = EngineConfig { vcs, buffer_depth, ..cfg_for(&spec, 0) };
            let compiled = CompiledNet::new(Arc::clone(&net), base.clone()).unwrap();
            for seed in SEEDS {
                let cfg = EngineConfig { seed, ..base.clone() };
                let what = format!("{} vcs {vcs} depth {buffer_depth} seed {seed:#x}", spec.name());
                let opt = run_simulation(&net, &wl, &cfg).unwrap();
                let refr = reference::run_simulation(&net, &wl, &cfg).unwrap();
                assert_identical(&what, &opt, &refr);
                let fast = compiled.run_poisson(&wl, seed, &mut st).unwrap();
                assert_identical(&format!("{what} compiled"), &fast, &refr);
                assert!(opt.delivered_packets > 0, "{what}: nothing simulated");
            }
        }
    }
}

/// Deterministic scripts, including event traces and delivery logs.
fn script(g: Geometry) -> Vec<ScriptedMsg> {
    let n = g.nodes();
    let mut msgs = Vec::new();
    // A staggered all-to-one-neighbour pattern plus some cross traffic;
    // enough overlap in time to exercise blocking and VC multiplexing.
    for i in 0..n {
        msgs.push(ScriptedMsg {
            time: u64::from(i % 7) * 3,
            src: i,
            dst: (i + 1) % n,
            len: 4 + (i % 5),
        });
        if i % 3 == 0 {
            msgs.push(ScriptedMsg {
                time: 10 + u64::from(i),
                src: i,
                dst: (i + n / 2) % n,
                len: 16,
            });
        }
    }
    msgs
}

#[test]
fn scripted_reports_are_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));
        let once = Script::compile(g, &script(g)).unwrap(); // validated once
        for (vcs, buffer_depth) in lanes_and_depths(&spec) {
            let mut base = cfg_for(&spec, 0);
            base.vcs = vcs;
            base.buffer_depth = buffer_depth;
            base.warmup = 0;
            base.measure = 1_000_000;
            base.collect_trace = true;
            let compiled = CompiledNet::new(Arc::clone(&net), base.clone()).unwrap();
            for seed in SEEDS {
                let cfg = EngineConfig { seed, ..base.clone() };
                let what = format!("{} vcs {vcs} depth {buffer_depth} seed {seed:#x}", spec.name());
                let opt = run_scripted(&net, &script(g), &cfg).unwrap();
                let refr = reference::run_scripted(&net, &script(g), &cfg).unwrap();
                assert_identical(&what, &opt, &refr);
                let fast = compiled.run_script(&once, seed, &mut st).unwrap();
                assert_identical(&format!("{what} compiled"), &fast, &refr);
                assert_eq!(
                    opt.delivered_packets as usize,
                    script(g).len(),
                    "{what}: script must drain"
                );
            }
        }
    }
}

/// Chained (dependent) traffic: a binomial multicast tree from node 0
/// plus independent root messages, with relay overhead.
fn chain(g: Geometry) -> Vec<ChainedMsg> {
    let n = g.nodes();
    let mut msgs: Vec<ChainedMsg> = Vec::new();
    // Binomial tree: each delivered message forwards to two more nodes.
    msgs.push(ChainedMsg { src: 0, dst: 1, len: 8, earliest: 0, after: None });
    msgs.push(ChainedMsg { src: 0, dst: n / 2, len: 8, earliest: 0, after: None });
    let mut i = 0;
    while i < msgs.len() && msgs.len() < 16 {
        let parent = &msgs[i];
        let relay = parent.dst;
        let next = (relay * 2 + 3) % n;
        if next != relay {
            msgs.push(ChainedMsg {
                src: relay,
                dst: next,
                len: 6,
                earliest: 5,
                after: Some(i),
            });
        }
        i += 1;
    }
    // Background roots staggered in time.
    for i in (3..n).step_by(7) {
        msgs.push(ChainedMsg {
            src: i,
            dst: (i + 5) % n,
            len: 12,
            earliest: u64::from(i),
            after: None,
        });
    }
    msgs
}

#[test]
fn chained_reports_are_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));
        let mut base = cfg_for(&spec, 0);
        base.warmup = 0;
        base.measure = 1_000_000;
        base.collect_trace = true;
        let compiled = CompiledNet::new(Arc::clone(&net), base.clone()).unwrap();
        let once = Chain::compile(g, &chain(g), 20).unwrap();
        for seed in SEEDS {
            let cfg = EngineConfig { seed, ..base.clone() };
            let opt = run_chained(&net, &chain(g), 20, &cfg).unwrap();
            let refr = reference::run_chained(&net, &chain(g), 20, &cfg).unwrap();
            assert_identical(&format!("{} seed {seed:#x}", spec.name()), &opt, &refr);
            let fast = compiled.run_chain(&once, seed, &mut st).unwrap();
            assert_identical(&format!("{} seed {seed:#x} compiled", spec.name()), &fast, &refr);
            assert_eq!(
                opt.delivered_packets as usize,
                chain(g).len(),
                "{}: chain must complete",
                spec.name()
            );
        }
    }
}

/// The ablation transmit order must agree too — the occupied-channel set
/// is indexed by order position, whatever the order is.
#[test]
fn build_order_transmit_is_bit_identical() {
    let g = Geometry::new(4, 3);
    let spec = NetworkSpec::tmin();
    let net = spec.build(g);
    let wl = Workload::compile(g, &WorkloadSpec::global_uniform(0.4)).unwrap();
    for vcs in [1, 3] {
        let mut cfg = cfg_for(&spec, SEEDS[0]);
        cfg.vcs = vcs;
        cfg.transmit_order = minnet_sim::TransmitOrder::BuildOrder;
        let opt = run_simulation(&net, &wl, &cfg).unwrap();
        let refr = reference::run_simulation(&net, &wl, &cfg).unwrap();
        assert_identical(&format!("cube wiring vcs {vcs} build-order"), &opt, &refr);
    }
}

/// Crossbar validation exercises the engine's release bookkeeping on a
/// different path; keep it equivalent as well.
#[test]
fn crossbar_validated_run_is_bit_identical() {
    let g = Geometry::new(4, 3);
    let spec = NetworkSpec::Bmin;
    let net = spec.build(g);
    let wl = Workload::compile(g, &WorkloadSpec::global_uniform(0.3)).unwrap();
    let mut cfg = cfg_for(&spec, SEEDS[1]);
    cfg.validate_crossbars = true;
    let opt = run_simulation(&net, &wl, &cfg).unwrap();
    let refr = reference::run_simulation(&net, &wl, &cfg).unwrap();
    assert_identical("BMIN crossbar-validated", &opt, &refr);
}

/// A parallel sweep must give byte-for-byte the same curve no matter how
/// many worker threads carve it up — each task owns a derived seed, and
/// workers reuse their own engine states. All four networks, 1 vs 8
/// threads, and the sweep must equal what per-point one-shot runs give.
#[test]
fn sweep_reports_are_thread_count_invariant() {
    use minnet::sweep::latency_throughput_curve;
    use minnet::Experiment;
    use minnet_traffic::MessageSizeDist;

    let loads = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75];
    for spec in NetworkSpec::paper_lineup() {
        let mut exp = Experiment::paper_default(spec);
        exp.sizes = MessageSizeDist::Fixed(32);
        exp.sim.warmup = 500;
        exp.sim.measure = 4_000;
        let seq = latency_throughput_curve(&exp, &loads, 1).unwrap();
        let par = latency_throughput_curve(&exp, &loads, 8).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.offered.to_bits(), b.offered.to_bits());
            assert!(
                a.report.bitwise_eq(&b.report),
                "{}: thread count changed the report at load {}",
                spec.name(),
                a.offered
            );
        }
    }
}

/// The replicated sweep parallelizes over the (point, replication) grid;
/// its aggregates must not depend on how workers claim that grid.
#[test]
fn replicated_sweep_is_thread_count_invariant() {
    use minnet::sweep::replicated_curve;
    use minnet::Experiment;
    use minnet_traffic::MessageSizeDist;

    let mut exp = Experiment::paper_default(NetworkSpec::vmin(2));
    exp.sizes = MessageSizeDist::Fixed(32);
    exp.sim.warmup = 500;
    exp.sim.measure = 4_000;
    let loads = [0.1, 0.3, 0.5];
    let seq = replicated_curve(&exp, &loads, 5, 1).unwrap();
    let par = replicated_curve(&exp, &loads, 5, 8).unwrap();
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.mean_latency_cycles.to_bits(), b.mean_latency_cycles.to_bits());
        assert_eq!(a.latency_ci95_cycles.to_bits(), b.latency_ci95_cycles.to_bits());
        assert_eq!(
            a.accepted_flits_per_node_cycle.to_bits(),
            b.accepted_flits_per_node_cycle.to_bits()
        );
        for (x, y) in a.replications.iter().zip(&b.replications) {
            assert!(x.bitwise_eq(y), "replication diverged at load {}", a.offered);
        }
    }
}

/// One engine state dragged across traffic *modes* (Poisson → scripted →
/// chained → Poisson) must behave exactly like fresh states: the reset
/// path owns every mode-specific structure (heaps, delivery logs,
/// traces).
#[test]
fn state_reuse_across_traffic_modes_is_bit_identical() {
    let g = Geometry::new(4, 3);
    let spec = NetworkSpec::dmin(2);
    let net = Arc::new(spec.build(g));
    let wl = Workload::compile(g, &WorkloadSpec::global_uniform(0.3)).unwrap();
    let mut poisson_cfg = cfg_for(&spec, SEEDS[0]);
    poisson_cfg.collect_trace = true;
    let mut det_cfg = poisson_cfg.clone();
    det_cfg.warmup = 0;
    det_cfg.measure = 1_000_000;

    let compiled_p = CompiledNet::new(Arc::clone(&net), poisson_cfg.clone()).unwrap();
    let compiled_d = CompiledNet::new(Arc::clone(&net), det_cfg.clone()).unwrap();
    let once_script = Script::compile(g, &script(g)).unwrap();
    let once_chain = Chain::compile(g, &chain(g), 20).unwrap();

    // Fresh-state baselines.
    let want_p = run_simulation(&net, &wl, &poisson_cfg).unwrap();
    let want_s = run_scripted(&net, &script(g), &det_cfg).unwrap();
    let want_c = run_chained(&net, &chain(g), 20, &det_cfg).unwrap();

    // The same state cycles through all modes, twice.
    let mut st = EngineState::new();
    for round in 0..2 {
        let p = compiled_p.run_poisson(&wl, SEEDS[0], &mut st).unwrap();
        assert_identical(&format!("poisson round {round}"), &p, &want_p);
        let s = compiled_d.run_script(&once_script, SEEDS[0], &mut st).unwrap();
        assert_identical(&format!("scripted round {round}"), &s, &want_s);
        let c = compiled_d.run_chain(&once_chain, SEEDS[0], &mut st).unwrap();
        assert_identical(&format!("chained round {round}"), &c, &want_c);
    }
}

/// The `(vcs, buffer_depth, transmit order)` grid of the short-message
/// differentials below.
fn short_message_grid() -> impl Iterator<Item = (u8, u16, TransmitOrder)> {
    let orders = [TransmitOrder::ReverseTopo, TransmitOrder::BuildOrder];
    (1..=3u8).flat_map(move |vcs| {
        (1..=3u16).flat_map(move |depth| orders.map(move |order| (vcs, depth, order)))
    })
}

/// Worms of 1, 2 and `depth + 1` flits from every node, toward a handful
/// of destinations so they queue behind one another: header = tail, a
/// tail that lands while its header is still buffered one hop ahead, a
/// worm that fits in a single lane buffer with a flit to spare. The
/// engine stores no flit — which one is a header or a tail is derived
/// from the worm's lane chain — and these are the shapes where every
/// derivation fires within a cycle or two of the others.
fn short_script(g: Geometry, depth: u16) -> Vec<ScriptedMsg> {
    let n = g.nodes();
    let lens = [1, 2, u32::from(depth) + 1];
    (0..3 * n)
        .map(|i| {
            let (src, round) = (i % n, i / n);
            let dst = (src * 7 + round) % 5;
            ScriptedMsg {
                time: u64::from(round * 9 + src % 4),
                src,
                dst: if dst == src { src + 5 } else { dst },
                len: lens[((src + round) % 3) as usize],
            }
        })
        .collect()
}

#[test]
fn short_message_scripts_are_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    for spec in [NetworkSpec::tmin(), NetworkSpec::dmin(2), NetworkSpec::Bmin] {
        let net = Arc::new(spec.build(g));
        for (vcs, buffer_depth, transmit_order) in short_message_grid() {
            let cfg = EngineConfig {
                vcs,
                buffer_depth,
                transmit_order,
                warmup: 0,
                measure: 1_000_000,
                collect_trace: true,
                ..cfg_for(&spec, SEEDS[0])
            };
            let what = format!("{} vcs {vcs} depth {buffer_depth} {transmit_order:?}", spec.name());
            let msgs = short_script(g, buffer_depth);
            let refr = reference::run_scripted(&net, &msgs, &cfg).unwrap();
            let compiled = CompiledNet::new(Arc::clone(&net), cfg.clone()).unwrap();
            let script = Script::compile(g, &msgs).unwrap();
            let opt = compiled.run_script(&script, cfg.seed, &mut st).unwrap();
            assert_identical(&what, &opt, &refr);
            assert_eq!(opt.delivered_packets as usize, msgs.len(), "{what}: script must drain");
        }
    }
}

#[test]
fn short_message_poisson_is_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    for spec in [NetworkSpec::tmin(), NetworkSpec::dmin(2), NetworkSpec::Bmin] {
        let net = Arc::new(spec.build(g));
        for (vcs, buffer_depth, transmit_order) in short_message_grid() {
            let cfg = EngineConfig {
                vcs,
                buffer_depth,
                transmit_order,
                warmup: 500,
                measure: 3_000,
                ..cfg_for(&spec, SEEDS[1])
            };
            let sizes = MessageSizeDist::UniformRange { min: 1, max: u32::from(buffer_depth) + 1 };
            let wl = WorkloadSpec { sizes, ..WorkloadSpec::global_uniform(0.3) };
            let wl = Workload::compile(g, &wl).unwrap();
            let what = format!("{} vcs {vcs} depth {buffer_depth} {transmit_order:?}", spec.name());
            let refr = reference::run_simulation(&net, &wl, &cfg).unwrap();
            let compiled = CompiledNet::new(Arc::clone(&net), cfg.clone()).unwrap();
            let opt = compiled.run_poisson(&wl, cfg.seed, &mut st).unwrap();
            assert_identical(&what, &opt, &refr);
            assert!(opt.delivered_packets > 1_000, "{what}: nothing simulated");
        }
    }
}

/// The fault path on the same short worms. The reference engine has no
/// fault layer, so the differential half kills a channel no scripted
/// route crosses: the run goes through the masked tables, the dead-plane
/// test in every gather and the per-request level lookup, and must still
/// land every bit where the reference does. The abort half then kills,
/// for a few cycles, a channel two worms are strung across mid-flight —
/// one already cut loose from its source, one still drawing from it:
/// exactly those two are aborted (buffered flits counted out of the
/// occupancy counters — debug builds hold `sent = delivered + drained`),
/// everything else is delivered, and the sources inject again afterwards.
#[test]
fn short_message_fault_abort_mid_worm() {
    let g = Geometry::new(4, 3);
    let net = Arc::new(NetworkSpec::tmin().build(g));
    let routes = RouteTable::build(&net).unwrap();
    // The TMIN's unique route, as channels.
    let path = |src: u32, dst: u32| {
        let hops = std::iter::successors(Some(net.inject(src)), |&at| {
            routes.candidates(at, dst).first().copied()
        });
        hops.collect::<Vec<_>>()
    };
    let mut st = EngineState::new();
    for (vcs, buffer_depth, transmit_order) in short_message_grid() {
        let cfg = EngineConfig {
            vcs,
            buffer_depth,
            transmit_order,
            warmup: 0,
            measure: 1_000_000,
            collect_trace: true,
            ..cfg_for(&NetworkSpec::tmin(), SEEDS[2])
        };
        let what = format!("vcs {vcs} depth {buffer_depth} {transmit_order:?}");
        let compiled = CompiledNet::new(Arc::clone(&net), cfg.clone()).unwrap();

        // Differential half: half the nodes send, so some inter-stage
        // channel carries nothing.
        let msgs: Vec<ScriptedMsg> =
            short_script(g, buffer_depth).into_iter().filter(|m| m.src < 32).collect();
        let used: Vec<u32> = msgs.iter().flat_map(|m| path(m.src, m.dst)).collect();
        let idle = inter_stage_channels(&net).into_iter().find(|c| !used.contains(c)).unwrap();
        let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(idle)));
        let faults = compiled.compile_faults(&plan).unwrap();
        assert!(!faults.is_trivial());
        let script = Script::compile(g, &msgs).unwrap();
        let opt = compiled.run_script_faulted(&script, Some(&faults), cfg.seed, &mut st).unwrap();
        let refr = reference::run_scripted(&net, &msgs, &cfg).unwrap();
        assert_identical(&format!("{what}, idle channel dead"), &opt, &refr);

        // Abort half. By cycle 3 both worms' headers are past the first
        // stage; the 2-flit one has left its source, the long one has not.
        let (cut_loose, drawing) = (path(0, 63), path(21, 42));
        assert!(!drawing.contains(&cut_loose[1]) && !cut_loose.contains(&drawing[1]));
        let mut msgs = vec![
            ScriptedMsg { time: 0, src: 0, dst: 63, len: 2 },
            ScriptedMsg { time: 0, src: 21, dst: 42, len: 40 },
            ScriptedMsg { time: 0, src: 5, dst: 6, len: u32::from(buffer_depth) + 1 },
        ];
        msgs.extend([0, 21].map(|src| ScriptedMsg { time: 60, src, dst: src + 1, len: 1 }));
        let plan = [cut_loose[1], drawing[1]].iter().fold(FaultPlan::new(), |plan, &c| {
            plan.with(Fault::transient(FaultTarget::Channel(c), 3, 40))
        });
        let faults = compiled.compile_faults(&plan).unwrap();
        let script = Script::compile(g, &msgs).unwrap();
        let r = compiled.run_script_faulted(&script, Some(&faults), cfg.seed, &mut st).unwrap();
        let aborted: Vec<(u32, u64)> = r
            .trace
            .as_ref()
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Aborted { tag, time } => Some((tag, time)),
                _ => None,
            })
            .collect();
        assert_eq!(aborted, [(0, 3), (1, 3)], "{what}");
        assert_eq!((r.aborted_packets, r.delivered_packets), (2, 3), "{what}");
        assert_eq!((r.undeliverable_packets, r.in_flight_at_end), (0, 0), "{what}");
        let again = compiled.run_script_faulted(&script, Some(&faults), cfg.seed, &mut st).unwrap();
        assert!(again.bitwise_eq(&r), "{what}: an aborted run must leave no residue");
    }
}

/// A sparse script: one 32-flit worm every 700 cycles, so the network
/// drains to full quiescence between injections — maximal fast-forward
/// territory.
fn sparse_script(g: Geometry) -> Vec<ScriptedMsg> {
    let n = g.nodes();
    (0..10u32)
        .map(|i| ScriptedMsg {
            time: u64::from(i) * 700,
            src: (i * 11) % n,
            dst: (i * 11 + n / 2 + 1) % n,
            len: 32,
        })
        .collect()
}

/// Event-horizon fast-forward on vs off must be **bit-identical** across
/// all four networks, all three traffic modes, and both a
/// quiescence-heavy and a drain-heavy shape. The frozen reference engine
/// (which has no fast-forward at all) anchors every comparison, so the
/// jump can't hide a divergence both paths share.
///
/// Quiescence-heavy shapes: a near-idle Poisson load whose first arrival
/// typically lands beyond the warmup boundary (exercising the bulk
/// zero-sample replay across it), a sparse script with ~700-cycle gaps,
/// and a chain whose ~300-cycle relay overhead leaves the network empty
/// between generations. Drain-heavy shapes: the dense script/chain that
/// finish far before the configured horizon — the jump must not disturb
/// the drain break's cycle count — and a moderate Poisson load where
/// quiescence (almost) never occurs and the gate must be a no-op.
#[test]
fn fast_forward_reports_are_bit_identical() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));

        // Poisson: near-idle and moderate.
        for load in [0.002, 0.3] {
            let wl = Workload::compile(g, &WorkloadSpec::global_uniform(load)).unwrap();
            for seed in SEEDS {
                let mut on = cfg_for(&spec, seed);
                on.warmup = 300;
                on.measure = 2_500;
                let off = EngineConfig {
                    fast_forward: false,
                    ..on.clone()
                };
                assert!(on.fast_forward, "fast-forward must default on");
                let fast = run_simulation(&net, &wl, &on).unwrap();
                let slow = run_simulation(&net, &wl, &off).unwrap();
                let refr = reference::run_simulation(&net, &wl, &off).unwrap();
                let what = format!("{} poisson load {load} seed {seed:#x}", spec.name());
                assert_identical(&format!("{what} (on vs off)"), &fast, &slow);
                assert_identical(&format!("{what} (on vs reference)"), &fast, &refr);
                // The compiled path takes the same jumps through a reused state.
                let compiled = CompiledNet::new(Arc::clone(&net), on.clone()).unwrap();
                let comp = compiled.run_poisson(&wl, seed, &mut st).unwrap();
                assert_identical(&format!("{what} (compiled)"), &comp, &refr);
            }
        }

        // Scripted: sparse (gap-heavy) and dense (drain-heavy).
        for msgs in [sparse_script(g), script(g)] {
            let mut on = cfg_for(&spec, SEEDS[0]);
            on.warmup = 0;
            on.measure = 1_000_000;
            on.collect_trace = true;
            let off = EngineConfig {
                fast_forward: false,
                ..on.clone()
            };
            let fast = run_scripted(&net, &msgs, &on).unwrap();
            let slow = run_scripted(&net, &msgs, &off).unwrap();
            let refr = reference::run_scripted(&net, &msgs, &off).unwrap();
            let what = format!("{} scripted x{}", spec.name(), msgs.len());
            assert_identical(&format!("{what} (on vs off)"), &fast, &slow);
            assert_identical(&format!("{what} (on vs reference)"), &fast, &refr);
            assert_eq!(fast.delivered_packets as usize, msgs.len(), "{what}: must drain");
        }

        // Chained: relay overhead 300 empties the network between
        // generations; overhead 0 keeps it busy until the early drain.
        for overhead in [300u64, 0] {
            let mut on = cfg_for(&spec, SEEDS[1]);
            on.warmup = 0;
            on.measure = 1_000_000;
            on.collect_trace = true;
            let off = EngineConfig {
                fast_forward: false,
                ..on.clone()
            };
            let fast = run_chained(&net, &chain(g), overhead, &on).unwrap();
            let slow = run_chained(&net, &chain(g), overhead, &off).unwrap();
            let refr = reference::run_chained(&net, &chain(g), overhead, &off).unwrap();
            let what = format!("{} chained overhead {overhead}", spec.name());
            assert_identical(&format!("{what} (on vs off)"), &fast, &slow);
            assert_identical(&format!("{what} (on vs reference)"), &fast, &refr);
        }
    }
}

/// Scalar ≡ lockstep, Poisson: every lane of a lockstep fleet must
/// reproduce its scalar run bit for bit — all four networks, a
/// quiescence-heavy and a moderate load, and several thread chunkings
/// (1 = one interleaved fleet; more = contiguous lane blocks on scoped
/// threads). The scalar baselines reuse one engine state, the fleets
/// one lane pool, so state reuse is pinned on both sides.
#[test]
fn lockstep_poisson_lanes_match_scalar_bitwise() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    let mut ls = minnet_sim::LockstepState::new();
    let seeds: Vec<u64> = (0..5u64).map(|r| 0xA5A5 + r * 7919).collect();
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));
        let mut cfg = cfg_for(&spec, 0);
        cfg.warmup = 500;
        cfg.measure = 3_000;
        let compiled = CompiledNet::new(Arc::clone(&net), cfg).unwrap();
        for load in [0.002, 0.3] {
            let wl = Workload::compile(g, &WorkloadSpec::global_uniform(load)).unwrap();
            let scalar: Vec<SimReport> = seeds
                .iter()
                .map(|&s| compiled.run_poisson(&wl, s, &mut st).unwrap())
                .collect();
            for threads in [1usize, 2, 5] {
                let fleet = compiled.run_poisson_lockstep(&wl, &seeds, threads, &mut ls);
                for ((lane, want), &seed) in fleet.iter().zip(&scalar).zip(&seeds) {
                    let lane = lane.as_ref().expect("lockstep lane failed");
                    assert_identical(
                        &format!(
                            "{} load {load} seed {seed:#x} threads {threads} (lockstep)",
                            spec.name()
                        ),
                        lane,
                        want,
                    );
                }
            }
        }
    }
}

/// Scalar ≡ lockstep, scripted: both the dense (drain-heavy) and the
/// sparse (joint-fast-forward-heavy) script shapes, all four networks.
/// Event traces ride along, so the comparison pins per-cycle event
/// streams, not just the aggregate report.
#[test]
fn lockstep_script_lanes_match_scalar_bitwise() {
    let g = Geometry::new(4, 3);
    let mut st = EngineState::new();
    let mut ls = minnet_sim::LockstepState::new();
    let seeds: Vec<u64> = (0..4u64).map(|r| 0xBEE5 + r * 6151).collect();
    for spec in NetworkSpec::paper_lineup() {
        let net = Arc::new(spec.build(g));
        let mut cfg = cfg_for(&spec, 0);
        cfg.warmup = 0;
        cfg.measure = 1_000_000;
        cfg.collect_trace = true;
        let compiled = CompiledNet::new(Arc::clone(&net), cfg).unwrap();
        for msgs in [script(g), sparse_script(g)] {
            let once = Script::compile(g, &msgs).unwrap();
            let scalar: Vec<SimReport> = seeds
                .iter()
                .map(|&s| compiled.run_script(&once, s, &mut st).unwrap())
                .collect();
            for threads in [1usize, 3] {
                let fleet = compiled.run_script_lockstep(&once, &seeds, threads, &mut ls);
                for ((lane, want), &seed) in fleet.iter().zip(&scalar).zip(&seeds) {
                    let lane = lane.as_ref().expect("lockstep lane failed");
                    assert_identical(
                        &format!(
                            "{} script x{} seed {seed:#x} threads {threads} (lockstep)",
                            spec.name(),
                            msgs.len()
                        ),
                        lane,
                        want,
                    );
                    assert_eq!(lane.delivered_packets as usize, msgs.len());
                }
            }
        }
    }
}

/// Regression test for the measurement-accounting fixes: a short scripted
/// run that drains long before the configured window must normalize its
/// rates by the cycles actually measured, and count only measured
/// packets' flits.
#[test]
fn early_drain_normalizes_by_elapsed_cycles() {
    let g = Geometry::new(4, 3);
    let spec = NetworkSpec::tmin();
    let net = spec.build(g);
    let msgs = [
        ScriptedMsg { time: 0, src: 0, dst: 9, len: 10 },
        ScriptedMsg { time: 2, src: 5, dst: 20, len: 10 },
        ScriptedMsg { time: 4, src: 33, dst: 2, len: 10 },
    ];
    let mut cfg = EngineConfig {
        warmup: 0,
        measure: 1_000_000, // vastly larger than the drain time
        seed: 7,
        ..EngineConfig::default()
    };
    let r = run_scripted(&net, &msgs, &cfg).unwrap();
    assert_eq!(r.delivered_packets, 3);
    assert!(
        r.cycles < 200,
        "three short worms must drain quickly, took {} cycles",
        r.cycles
    );
    assert_eq!(r.measured_cycles, r.cycles);
    // 3 messages × 10 flits over the *elapsed* cycles — dividing by the
    // configured window would report a rate ~10⁴× too small.
    let expect = 30.0 / (64.0 * r.measured_cycles as f64);
    assert!(
        (r.accepted_flits_per_node_cycle - expect).abs() < 1e-12,
        "accepted {} vs expected {expect}",
        r.accepted_flits_per_node_cycle
    );
    assert!((r.offered_flits_per_node_cycle - expect).abs() < 1e-12);

    // Warmup asymmetry: a packet generated during warmup contributes
    // neither to delivered_packets nor to delivered_flits, even though
    // its flits land inside the window.
    cfg.warmup = 3; // messages at t=0 and t=2 are warmup traffic
    cfg.measure = 1_000_000;
    let r = run_scripted(&net, &msgs, &cfg).unwrap();
    assert_eq!(r.delivered_packets, 1, "only the t=4 message is measured");
    let expect = 10.0 / (64.0 * r.measured_cycles as f64);
    assert!(
        (r.accepted_flits_per_node_cycle - expect).abs() < 1e-12,
        "warmup packets' flits must be excluded: accepted {} vs {expect}",
        r.accepted_flits_per_node_cycle
    );
}
