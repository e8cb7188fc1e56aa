//! Property tests for the compile-once pipeline: random specs, loads,
//! seeds and scripts must behave **bit-identically** through a compiled
//! run on a reused state ([`CompiledExperiment::run`], [`CompiledNet::run`])
//! and a one-shot run on a fresh one ([`Experiment::run`], [`run_once`])
//! — and the precomputed routing table must answer exactly
//! like the closed-form [`RouteLogic`] along random routes.
//!
//! The vendored proptest shim draws each test's cases from a fixed seed,
//! so failures reproduce without a persistence file.

use minnet::{CompiledExperiment, Experiment, NetworkSpec};
use minnet_repro::support::{global_uniform, run_once};
use minnet_routing::{RouteLogic, RouteTable};
use minnet_sim::reference::{self, Ablation};
use minnet_sim::{CompiledNet, EngineConfig, EngineState, Script, ScriptedMsg, SimError, Traffic};
use minnet_topology::{FaultPlan, Geometry};
use minnet_traffic::{MessageSizeDist, Workload};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn lineup_spec(i: usize) -> NetworkSpec {
    NetworkSpec::paper_lineup()[i % 4]
}

/// Compiled experiments are load-independent; build each lineup entry
/// once for the whole test binary.
fn compiled_lineup() -> &'static Vec<(Experiment, CompiledExperiment)> {
    static CACHE: OnceLock<Vec<(Experiment, CompiledExperiment)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        NetworkSpec::paper_lineup()
            .into_iter()
            .map(|spec| {
                let mut exp = Experiment::paper_default(spec);
                exp.sizes = MessageSizeDist::Fixed(16);
                exp.sim.warmup = 300;
                exp.sim.measure = 1_500;
                let compiled = exp.compile().unwrap();
                (exp, compiled)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random (network, load, seed): a compiled run — shared routing
    // table, a state another load has used — equals a one-shot
    // `Experiment::run` (compile, fresh state) bit for bit.
    #[test]
    fn compiled_run_equals_fresh_run(
        which in 0usize..4,
        load_pct in 5u32..65,
        seed in 0u64..u64::MAX,
    ) {
        let (exp, compiled) = &compiled_lineup()[which];
        let load = f64::from(load_pct) / 100.0;
        let mut seeded = exp.clone();
        seeded.sim.seed = seed;
        let fresh = seeded.run(load).unwrap();
        let mut st = EngineState::new();
        compiled.run(0.7 - load, !seed, &mut st).unwrap();
        let fast = compiled.run(load, seed, &mut st).unwrap();
        prop_assert!(
            fresh.bitwise_eq(&fast),
            "{} load {load} seed {seed:#x}: compiled diverged",
            exp.network.name()
        );
    }

    // Random scripts: compiling the script once (validate + sort once)
    // and replaying it through one compiled network, on a fresh state and
    // again on the same state, equals a one-shot run (`run_once`: a
    // private network, a fresh state) bit for bit.
    #[test]
    fn compiled_script_equals_run_scripted(
        which in 0usize..4,
        seed in 0u64..u64::MAX,
        raw in proptest::collection::vec((0u64..60, 0u32..64, 0u32..64, 1u32..24), 1..40),
    ) {
        let g = Geometry::new(4, 3);
        let spec = lineup_spec(which);
        let net = Arc::new(spec.build(g));
        let msgs: Vec<ScriptedMsg> = raw
            .into_iter()
            .map(|(time, src, dst, len)| ScriptedMsg {
                time,
                src,
                // Self-sends are invalid by contract; remap instead of
                // discarding so every drawn case tests something.
                dst: if dst == src { (dst + 1) % 64 } else { dst },
                len,
            })
            .collect();
        let cfg = EngineConfig {
            vcs: spec.vcs(),
            warmup: 0,
            measure: 1_000_000,
            seed,
            ..EngineConfig::default()
        };
        let script = Script::compile(g, &msgs).unwrap();
        let wrapper = run_once(&net, &cfg, Traffic::Script(&script), false).unwrap();
        let compiled = CompiledNet::new(Arc::clone(&net), cfg).unwrap();
        let mut st = EngineState::new();
        for _ in 0..2 {
            let fast = compiled.run(Traffic::Script(&script), None, seed, &mut st).unwrap();
            prop_assert!(
                wrapper.bitwise_eq(&fast),
                "{} seed {seed:#x}: compiled script diverged",
                spec.name()
            );
        }
        prop_assert_eq!(wrapper.delivered_packets as usize, msgs.len());
    }

    // Random near-idle Poisson runs: the event-horizon fast-forward must
    // be invisible in the report — bit for bit against the reference
    // engine, which steps every cycle — at loads where almost every
    // cycle is quiescent. The test profile keeps debug assertions on, so
    // the engine's "arrival missed its cycle" tripwire doubles as the
    // property that no jump ever passes an arrival-heap key: a jump
    // landing past a matured entry would pop it with `fire < now` and
    // abort the run instead of merely diverging.
    #[test]
    fn fast_forward_is_invisible_at_random_low_loads(
        which in 0usize..4,
        seed in 0u64..u64::MAX,
        load_bp in 1u32..50, // 0.0002..0.01 flits/node/cycle
        warmup in 0u64..600,
    ) {
        let g = Geometry::new(4, 3);
        let spec = lineup_spec(which);
        let net = Arc::new(spec.build(g));
        let load = f64::from(load_bp) / 5_000.0;
        let mut wspec = global_uniform(load);
        wspec.sizes = MessageSizeDist::Fixed(16);
        let wl = Workload::compile(g, &wspec).unwrap();
        let cfg = EngineConfig {
            vcs: spec.vcs(),
            warmup,
            measure: 2_000,
            seed,
            ..EngineConfig::default()
        };
        let fast = run_once(&net, &cfg, Traffic::Poisson(&wl), false).unwrap();
        let slow = reference::run_simulation(&net, &wl, &cfg, Ablation::PAPER, false).unwrap();
        prop_assert!(
            fast.bitwise_eq(&slow),
            "{} load {load} warmup {warmup} seed {seed:#x}: fast-forward changed the report",
            spec.name()
        );
        prop_assert_eq!(fast.cycles, warmup + 2_000, "infinite traffic runs the full horizon");
    }

    // Random sparse scripts: big random gaps between injections are the
    // scripted fast-forward's jump targets (the script cursor, not a
    // heap). The engine and the never-jumping reference must agree bit
    // for bit, and every message must still drain — a jump past an
    // injection time would strand it (and trip the cycle-count equality,
    // since draining later moves the drain break).
    #[test]
    fn fast_forward_on_random_sparse_scripts(
        which in 0usize..4,
        seed in 0u64..u64::MAX,
        raw in proptest::collection::vec((0u64..5_000, 0u32..64, 0u32..64, 1u32..40), 1..8),
    ) {
        let g = Geometry::new(4, 3);
        let spec = lineup_spec(which);
        let net = Arc::new(spec.build(g));
        let msgs: Vec<ScriptedMsg> = raw
            .into_iter()
            .map(|(time, src, dst, len)| ScriptedMsg {
                time,
                src,
                dst: if dst == src { (dst + 1) % 64 } else { dst },
                len,
            })
            .collect();
        let cfg = EngineConfig {
            vcs: spec.vcs(),
            warmup: 0,
            measure: 1_000_000,
            seed,
            ..EngineConfig::default()
        };
        let script = Script::compile(g, &msgs).unwrap();
        let fast = run_once(&net, &cfg, Traffic::Script(&script), false).unwrap();
        let slow = reference::run_scripted(&net, &msgs, &cfg, Ablation::PAPER, false).unwrap();
        prop_assert!(
            fast.bitwise_eq(&slow),
            "{} seed {seed:#x}: fast-forward changed a sparse scripted report",
            spec.name()
        );
        prop_assert_eq!(fast.delivered_packets as usize, msgs.len());
    }

    // Random routes: walking a (src, dst) route with `RouteLogic`, the
    // precomputed table must offer the identical candidate slice at
    // every hop — on all four networks.
    #[test]
    fn route_table_matches_logic_along_random_routes(
        which in 0usize..4,
        src in 0u32..64,
        dst_raw in 0u32..64,
    ) {
        let g = Geometry::new(4, 3);
        let spec = lineup_spec(which);
        let net = Arc::new(spec.build(g));
        let dst = if dst_raw == src { (dst_raw + 1) % 64 } else { dst_raw };
        let logic = RouteLogic::for_kind(net.kind);
        let table = RouteTable::build(&net).unwrap();
        // Breadth-first over every channel the route may visit.
        let mut frontier = vec![net.inject(src)];
        let mut seen = vec![false; net.num_channels()];
        seen[net.inject(src) as usize] = true;
        let mut expect = Vec::new();
        let mut hops = 0usize;
        while let Some(at) = frontier.pop() {
            logic.candidates(&net, src, dst, at, &mut expect);
            prop_assert_eq!(
                table.candidates(at, dst),
                &expect[..],
                "{}: channel {} → {}",
                spec.name(),
                at,
                dst
            );
            hops += 1;
            for &c in &expect {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    frontier.push(c);
                }
            }
        }
        prop_assert!(hops > 1, "route must traverse at least one switch");
    }

    // Random (network, load, seed): `route_table_max_cells` bounds only
    // the dense masked tables of fault epochs. A compiled network under a
    // one-cell cap has the same routing table and runs healthy traffic
    // bit-identically to the default — and refuses every fault plan with
    // a typed routing error.
    #[test]
    fn tiny_fault_cap_refuses_plans_and_still_runs_healthy(
        which in 0usize..4,
        load_pct in 5u32..65,
        seed in 0u64..u64::MAX,
    ) {
        let g = Geometry::new(4, 3);
        let spec = lineup_spec(which);
        let net = Arc::new(spec.build(g));
        let load = f64::from(load_pct) / 100.0;
        let mut wspec = global_uniform(load);
        wspec.sizes = MessageSizeDist::Fixed(16);
        let wl = Workload::compile(g, &wspec).unwrap();
        let cfg = EngineConfig {
            vcs: spec.vcs(),
            warmup: 300,
            measure: 1_500,
            ..EngineConfig::default()
        };
        let tiny_cap = EngineConfig { route_table_max_cells: 1, ..cfg.clone() };
        let roomy = CompiledNet::new(Arc::clone(&net), cfg).unwrap();
        let capped = CompiledNet::new(Arc::clone(&net), tiny_cap).unwrap();
        prop_assert!(roomy.routes().is_some() && capped.routes().is_some());
        let plan = FaultPlan::random_inter_stage_links(&net, 2, seed).unwrap();
        prop_assert!(roomy.compile_faults(&plan).is_ok());
        let refused = capped.compile_faults(&plan);
        prop_assert!(
            matches!(&refused, Err(SimError::Routing(msg)) if msg.contains("route_table_max_cells (1)")),
            "{:?}", refused.map(drop)
        );
        let mut st = EngineState::new();
        let a = roomy.run(Traffic::Poisson(&wl), None, seed, &mut st).unwrap();
        let b = capped.run(Traffic::Poisson(&wl), None, seed, &mut st).unwrap();
        prop_assert!(
            a.bitwise_eq(&b),
            "{} load {load} seed {seed:#x}: the fault cap changed a healthy run",
            spec.name()
        );
    }
}
