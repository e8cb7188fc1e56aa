//! The 16k-terminal run's resident high-water mark, held as code.
//!
//! `approx_bytes` budgets (`tests/footprint.rs` here and in
//! `minnet-topology`) count what a structure keeps; they cannot see what
//! building it allocates and frees, or what the allocator holds back.
//! `VmHWM` can — but it is per process and only ever rises, so this
//! binary has exactly one test: nothing else may run in its process.

use minnet_sim::{CompiledNet, EngineConfig, EngineState, Traffic};
use minnet_topology::{build_bmin, Geometry};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec};
use std::sync::Arc;

/// `VmHWM` of this process in KiB, or `None` where `/proc` has none.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn burst_16k_peak_rss_budget() {
    let Some(before) = vm_hwm_kib() else {
        return; // not Linux
    };
    // The 300-cycle burst of `tests/footprint.rs`: graph, compile, run.
    let g = Geometry::new(4, 7);
    let cfg = EngineConfig {
        warmup: 0,
        measure: 300,
        ..EngineConfig::default()
    };
    let net = CompiledNet::new(Arc::new(build_bmin(g)), cfg).unwrap();
    let spec = WorkloadSpec {
        offered_load: 0.1,
        pattern: TrafficPattern::Uniform,
        clustering: Clustering::Global,
        rates: None,
        sizes: MessageSizeDist::Fixed(32),
    };
    let workload = Workload::compile(g, &spec).unwrap();
    let report = net
        .run(Traffic::Poisson(&workload), None, 42, &mut EngineState::new())
        .unwrap();
    assert!(
        report.generated_packets > 1_000,
        "the burst must load the network"
    );

    let grew = vm_hwm_kib().unwrap() - before;
    assert!(
        grew <= 2_496,
        "16k BMIN burst raised VmHWM by {grew} KiB; the budget is 2.4375 MiB \
         (graph build ≈ 0.2 transient, compile and template a few KiB, state 2.24; \
         a 2-byte counter on every one-flit lane adds 448 KiB and fails it)"
    );
    eprintln!("16k BMIN burst: VmHWM +{grew} KiB");
}
