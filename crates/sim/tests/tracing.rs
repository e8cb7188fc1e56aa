//! Trace audits: the engine's recorded behaviour must agree with the
//! independent static analyses (routing enumeration, timing formulas).

use minnet_sim::{EngineConfig, Script, ScriptedMsg, TraceEvent, Traffic};
use minnet_topology::{build_bmin, build_unidir, Geometry, UnidirKind};
use support::run_once;

mod support;

fn script_cfg() -> EngineConfig {
    EngineConfig {
        warmup: 0,
        measure: 1_000_000,
        ..EngineConfig::default()
    }
}

/// A traced worm's channel path is one of the paths the routing logic can
/// generate — verified against `minnet-routing`'s exhaustive enumeration.
#[test]
fn traced_path_is_a_legal_routing_path() {
    use minnet_routing::{enumerate_paths, RouteLogic};
    for (net, pairs) in [
        (
            build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 2),
            [(0u32, 63u32), (17, 4), (33, 32)],
        ),
        (build_bmin(Geometry::new(4, 3)), [(0, 63), (17, 4), (33, 32)]),
    ] {
        let logic = RouteLogic::for_kind(net.kind);
        for (src, dst) in pairs {
            let msg = ScriptedMsg { time: 0, src, dst, len: 16 };
            let script = Script::compile(net.geometry, &[msg]).unwrap();
            let r = run_once(&net, &script_cfg(), Traffic::Script(&script), true).unwrap();
            let trace = r.trace.unwrap();
            let path = trace.channel_path(0);
            let legal = enumerate_paths(&net, logic, src, dst);
            assert!(
                legal.contains(&path),
                "traced path {path:?} not among the {} legal paths for {src}→{dst}",
                legal.len()
            );
        }
    }
}

/// Event ordering per message: queued → injected → hops (one per channel)
/// → delivered, with non-decreasing times and an unloaded one-hop-per-
/// cycle header schedule.
#[test]
fn trace_event_ordering_and_timing() {
    let g = Geometry::new(2, 3);
    let net = build_unidir(g, UnidirKind::Cube, 1);
    let script = Script::compile(g, &[ScriptedMsg { time: 3, src: 2, dst: 5, len: 10 }]).unwrap();
    let r = run_once(&net, &script_cfg(), Traffic::Script(&script), true).unwrap();
    let trace = r.trace.unwrap();
    let evs: Vec<TraceEvent> = trace.events.iter().copied().filter(|e| e.tag() == 0).collect();
    assert!(matches!(evs[0], TraceEvent::Queued { time: 3, src: 2, dst: 5, len: 10, .. }));
    assert!(matches!(evs[1], TraceEvent::Injected { time: 3, .. }));
    // Four hops (n+1 channels), allocated one per cycle starting at t=3.
    let hops: Vec<&TraceEvent> = evs
        .iter()
        .filter(|e| matches!(e, TraceEvent::Hop { .. }))
        .collect();
    assert_eq!(hops.len(), 4);
    for (i, h) in hops.iter().enumerate() {
        assert_eq!(h.time(), 3 + i as u64, "hop {i}");
    }
    let last = evs.last().unwrap();
    assert!(matches!(last, TraceEvent::Delivered { .. }));
    // Unloaded: done = gen + path + len - 1 = 3 + 4 + 10 - 1.
    assert_eq!(last.time(), 16);
    // Times never decrease.
    for w in evs.windows(2) {
        assert!(w[0].time() <= w[1].time());
    }
}

/// Tracing is orthogonal to results: the same run with and without the
/// trace produces identical deliveries.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let g = Geometry::new(4, 3);
    let net = build_bmin(g);
    let msgs: Vec<ScriptedMsg> = (0u32..40)
        .map(|i| ScriptedMsg {
            time: u64::from(i % 5),
            src: (i * 7) % 64,
            dst: (i * 7 + 13) % 64,
            len: 8 + (i % 30),
        })
        .collect();
    let script = Script::compile(g, &msgs).unwrap();
    let plain = run_once(&net, &script_cfg(), Traffic::Script(&script), false).unwrap();
    let traced = run_once(&net, &script_cfg(), Traffic::Script(&script), true).unwrap();
    assert_eq!(plain.deliveries.unwrap(), traced.deliveries.unwrap());
    assert!(traced.trace.is_some());
    assert!(plain.trace.is_none());
}
