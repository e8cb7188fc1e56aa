//! One §5 experiment: a network, a workload family, and engine settings.
//!
//! Two evaluation paths share one engine:
//!
//! * [`Experiment::run`] / [`Experiment::run_seeded`] — the original
//!   one-shot path: build the network, compile the workload, run. Nothing
//!   is cached; right for a single report.
//! * [`CompiledExperiment`] — the compile-once / run-many path: the
//!   network graph, the per-`(channel, destination)` routing table, and
//!   the workload *template* are built exactly once; each run only
//!   rescales the template to its load (a handful of float ops per node)
//!   and reuses a pooled or caller-owned
//!   [`EngineState`](minnet_sim::EngineState). Sweeps, saturation
//!   searches and replicated designs all sit on this path.
//!
//! Both paths are pinned bit-identical (`SimReport::bitwise_eq`) by the
//! workspace differential tests — compiling is *only* a performance
//! decision.

use crate::spec::NetworkSpec;
use minnet_sim::{
    run_simulation, with_pooled_state, CompiledNet, EngineConfig, EngineState, SimError, SimReport,
};
use minnet_topology::{Geometry, NetworkGraph};
use minnet_traffic::{
    Clustering, MessageSizeDist, TrafficPattern, Workload, WorkloadSpec, WorkloadTemplate,
};
use std::sync::Arc;

/// A complete experiment description; [`Experiment::run`] evaluates it at
/// one offered load, [`crate::sweep`] over a load range.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Network geometry (`k`, `n`). The paper: 64 nodes of 4×4 switches.
    pub geometry: Geometry,
    /// Which of the four designs to simulate.
    pub network: NetworkSpec,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Node clustering.
    pub clustering: Clustering,
    /// Optional per-cluster relative rates (§5.2 ratios).
    pub rates: Option<Vec<f64>>,
    /// Message sizes (paper: uniform [8, 1024]).
    pub sizes: MessageSizeDist,
    /// Engine settings. `sim.vcs` is overridden by the network spec.
    pub sim: EngineConfig,
}

impl Experiment {
    /// The paper's default setting: 64 nodes (k=4, n=3), global uniform
    /// traffic, uniform [8, 1024]-flit messages.
    pub fn paper_default(network: NetworkSpec) -> Experiment {
        Experiment {
            geometry: Geometry::new(4, 3),
            network,
            pattern: TrafficPattern::Uniform,
            clustering: Clustering::Global,
            rates: None,
            sizes: MessageSizeDist::PAPER,
            sim: EngineConfig::default(),
        }
    }

    /// Simulate at the given offered load (flits/cycle/node; 1.0 = the
    /// one-port injection bound).
    pub fn run(&self, offered_load: f64) -> Result<SimReport, String> {
        self.run_seeded(offered_load, self.sim.seed)
    }

    /// Like [`Experiment::run`] but with an explicit seed (used by sweeps
    /// to decorrelate points).
    pub fn run_seeded(&self, offered_load: f64, seed: u64) -> Result<SimReport, String> {
        self.network.validate()?;
        minnet_topology::graph::check_limits(self.geometry)?;
        let net = self.network.build(self.geometry);
        let spec = WorkloadSpec {
            offered_load,
            pattern: self.pattern,
            clustering: self.clustering.clone(),
            rates: self.rates.clone(),
            sizes: self.sizes,
        };
        let workload = Workload::compile(self.geometry, &spec)?;
        let cfg = EngineConfig {
            vcs: self.network.vcs(),
            seed,
            ..self.sim.clone()
        };
        Ok(run_simulation(&net, &workload, &cfg)?)
    }

    /// Compile this experiment for run-many use — see
    /// [`CompiledExperiment`].
    pub fn compile(&self) -> Result<CompiledExperiment, String> {
        CompiledExperiment::compile(self)
    }

    /// The workload spec this experiment evaluates at `offered_load`.
    fn workload_spec(&self, offered_load: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_load,
            pattern: self.pattern,
            clustering: self.clustering.clone(),
            rates: self.rates.clone(),
            sizes: self.sizes,
        }
    }
}

/// An [`Experiment`] with every load-independent artifact built exactly
/// once: the network graph (shared via `Arc` across sweep threads), the
/// routing table, the transmit order, and the workload template. Each run
/// costs only a workload rescale plus the simulation itself.
///
/// Runs are bit-identical to [`Experiment::run_seeded`] at the same
/// `(load, seed)` — the differential tests enforce it — so callers choose
/// by lifecycle, not semantics: one report → `Experiment::run`; a curve,
/// a search, or replications → compile once and reuse.
#[derive(Clone, Debug)]
pub struct CompiledExperiment {
    net: CompiledNet,
    template: WorkloadTemplate,
    seed: u64,
}

impl CompiledExperiment {
    /// Validate `exp` and build its shared artifacts.
    ///
    /// # Errors
    ///
    /// Reports invalid network specs, geometries past what the graph and
    /// the engine can index (`graph::check_limits` — `validate()` above
    /// has no geometry to look at), malformed workloads, and invalid
    /// engine configurations.
    pub fn compile(exp: &Experiment) -> Result<CompiledExperiment, String> {
        exp.network.validate()?;
        minnet_topology::graph::check_limits(exp.geometry)?;
        let graph = Arc::new(exp.network.build(exp.geometry));
        // The template ignores the placeholder load; per-run loads come
        // from `workload_at`.
        let template = WorkloadTemplate::compile(exp.geometry, &exp.workload_spec(1.0))?;
        let cfg = EngineConfig {
            vcs: exp.network.vcs(),
            ..exp.sim.clone()
        };
        let net = CompiledNet::new(graph, cfg)?;
        Ok(CompiledExperiment {
            net,
            template,
            seed: exp.sim.seed,
        })
    }

    /// The compiled network (graph, routing table, engine config).
    pub fn network(&self) -> &CompiledNet {
        &self.net
    }

    /// The shared network graph.
    pub fn graph(&self) -> &Arc<NetworkGraph> {
        self.net.network()
    }

    /// The compiled workload template.
    pub fn template(&self) -> &WorkloadTemplate {
        &self.template
    }

    /// The experiment's base seed (`sim.seed`).
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// Simulate at the given offered load with the experiment's own seed,
    /// using this thread's pooled engine state.
    pub fn run(&self, offered_load: f64) -> Result<SimReport, String> {
        self.run_seeded(offered_load, self.seed)
    }

    /// Like [`CompiledExperiment::run`] with an explicit seed, using this
    /// thread's pooled engine state.
    pub fn run_seeded(&self, offered_load: f64, seed: u64) -> Result<SimReport, String> {
        with_pooled_state(|st| self.run_with(offered_load, seed, st))
    }

    /// [`CompiledExperiment::run_seeded`] with the typed error surface —
    /// callers that must distinguish a budget cut (carrying a partial
    /// report) from a watchdog trip or a config problem use this form.
    pub fn run_seeded_typed(&self, offered_load: f64, seed: u64) -> Result<SimReport, SimError> {
        with_pooled_state(|st| self.run_typed(offered_load, seed, st))
    }

    /// Run with an explicit seed *and* a caller-owned engine state — the
    /// form sweep workers use so each worker reuses its own allocations.
    pub fn run_with(
        &self,
        offered_load: f64,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, String> {
        Ok(self.run_typed(offered_load, seed, st)?)
    }

    /// [`CompiledExperiment::run_with`] with the typed error surface —
    /// the form the campaign runner uses to classify failures.
    pub fn run_typed(
        &self,
        offered_load: f64,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        let workload = self.template.workload_at(offered_load).map_err(SimError::Config)?;
        self.net.run_poisson(&workload, seed, st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(network: NetworkSpec) -> Experiment {
        let mut e = Experiment::paper_default(network);
        e.sizes = MessageSizeDist::Fixed(32);
        e.sim.warmup = 1_000;
        e.sim.measure = 6_000;
        e
    }

    #[test]
    fn all_four_networks_run() {
        for spec in NetworkSpec::paper_lineup() {
            let r = quick(spec).run(0.2).unwrap();
            assert!(r.delivered_packets > 0, "{}", spec.name());
            assert!(r.sustainable, "{}", spec.name());
        }
    }

    #[test]
    fn vmin_uses_configured_vcs() {
        // A VMIN(4) must behave differently from a VMIN(1) == TMIN at
        // moderate load.
        let v4 = quick(NetworkSpec::vmin(4)).run(0.5).unwrap();
        let v1 = quick(NetworkSpec::vmin(1)).run(0.5).unwrap();
        assert_ne!(v4.mean_latency_cycles, v1.mean_latency_cycles);
    }

    #[test]
    fn invalid_spec_is_reported() {
        assert!(quick(NetworkSpec::dmin(0)).run(0.2).is_err());
        assert!(quick(NetworkSpec::dmin(0)).compile().is_err());
    }

    #[test]
    fn compiled_matches_one_shot_bitwise() {
        for spec in NetworkSpec::paper_lineup() {
            let exp = quick(spec);
            let compiled = exp.compile().unwrap();
            for (load, seed) in [(0.2, 7u64), (0.5, 0xFEED)] {
                let fresh = exp.run_seeded(load, seed).unwrap();
                let fast = compiled.run_seeded(load, seed).unwrap();
                assert!(
                    fresh.bitwise_eq(&fast),
                    "{} at load {load}: compiled path diverged",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn state_reuse_is_bit_identical() {
        // One EngineState carried across different loads and seeds must
        // leave no residue: re-running the first case reproduces it.
        let exp = quick(NetworkSpec::vmin(2));
        let compiled = exp.compile().unwrap();
        let mut st = minnet_sim::EngineState::new();
        let first = compiled.run_with(0.3, 1, &mut st).unwrap();
        compiled.run_with(0.7, 2, &mut st).unwrap();
        compiled.run_with(0.1, 3, &mut st).unwrap();
        let again = compiled.run_with(0.3, 1, &mut st).unwrap();
        assert!(first.bitwise_eq(&again));
    }

    #[test]
    fn compiled_run_uses_base_seed() {
        let exp = quick(NetworkSpec::tmin());
        let compiled = exp.compile().unwrap();
        let a = exp.run(0.25).unwrap();
        let b = compiled.run(0.25).unwrap();
        assert!(a.bitwise_eq(&b));
    }
}
