//! # minnet-repro
//!
//! Workspace-root host crate for the cross-crate integration tests
//! (`tests/`) and runnable examples (`examples/`) of the `minnet`
//! reproduction of Ni, Gui & Moore, *"Performance Evaluation of
//! Switch-Based Wormhole Networks"* (ICPP 1995 / IEEE TPDS 8(5), 1997).
//!
//! The library surface lives in the `minnet` facade crate
//! (`crates/core`), re-exported here for the tests' convenience; see the
//! repository `README.md` for the tour.

pub use minnet::*;

/// What the integration tests share: the engine run once, and the
/// workload most of them drive it with.
pub mod support {
    use minnet_sim::{CompiledNet, EngineConfig, EngineState, SimError, SimReport, Traffic};
    use minnet_topology::NetworkGraph;
    use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, WorkloadSpec};
    use std::sync::Arc;

    /// One run of the engine's one entry, [`CompiledNet::run`] — or,
    /// `observe` set, [`CompiledNet::run_observed`] — on a private copy
    /// of `net` and a fresh state at `cfg.seed`: the shape of the
    /// oracle's one-shot `reference::run_*` twins, `observe` included.
    pub fn run_once(
        net: &NetworkGraph,
        cfg: &EngineConfig,
        traffic: Traffic<'_>,
        observe: bool,
    ) -> Result<SimReport, SimError> {
        let compiled = CompiledNet::new(Arc::new(net.clone()), cfg.clone())?;
        let st = &mut EngineState::new();
        if observe {
            compiled.run_observed(traffic, None, cfg.seed, st)
        } else {
            compiled.run(traffic, None, cfg.seed, st)
        }
    }

    /// A global uniform workload with the paper's message sizes.
    pub fn global_uniform(offered_load: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_load,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::PAPER,
        }
    }
}
