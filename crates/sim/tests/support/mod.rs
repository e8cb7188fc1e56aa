//! What this package's integration tests share: the engine run once.

use minnet_sim::{CompiledNet, EngineConfig, EngineState, SimError, SimReport, Traffic};
use minnet_topology::NetworkGraph;
use std::sync::Arc;

/// One run of the engine's one entry, [`CompiledNet::run`] — or,
/// `observe` set, [`CompiledNet::run_observed`] — on a private copy of
/// `net` and a fresh state at `cfg.seed`: the shape of the oracle's
/// one-shot `reference::run_*` twins, `observe` included.
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
