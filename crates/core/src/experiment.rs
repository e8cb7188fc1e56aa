//! One §5 experiment: a network, a workload family, and engine settings.
//!
//! An experiment is evaluated one way. [`Experiment::compile`] builds
//! every load-independent artifact once — the network graph, the
//! per-`(channel, destination)` routing table and the workload
//! *template* — and [`CompiledExperiment::run`] rescales the template to
//! its load (a handful of float ops per node) and runs the engine on a
//! caller-owned [`EngineState`]. Sweeps, saturation searches and
//! replicated designs keep one state per worker; [`Experiment::run`], for
//! a single report, compiles and runs once on a fresh state.

use crate::spec::NetworkSpec;
use minnet_sim::{CompiledNet, EngineConfig, EngineState, SimError, SimReport, Traffic};
use minnet_topology::{Geometry, NetworkGraph};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern, WorkloadSpec, WorkloadTemplate};
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
    /// Engine settings. `sim.vcs` is not read: a run's lane count is the
    /// network's.
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
    /// one-port injection bound) with the experiment's own seed:
    /// [`Experiment::compile`], then one [`CompiledExperiment::run`] on a
    /// fresh state.
    pub fn run(&self, offered_load: f64) -> Result<SimReport, String> {
        Ok(self.compile()?.run(offered_load, self.sim.seed, &mut EngineState::new())?)
    }

    /// Everything [`Experiment::compile`] refuses that needs no graph,
    /// no routing table and no cluster map: the field at fault
    /// (`network`, `geometry`, a [`WorkloadSpec`] field, or an
    /// [`EngineConfig`] field, `vcs` being the network's lane count) and
    /// why. [`crate::spec::Settings::finish`] runs it, so every door
    /// refuses these where it reads them.
    pub(crate) fn check(&self) -> Result<(), (&'static str, String)> {
        self.network.validate().map_err(|why| ("network", why))?;
        minnet_topology::graph::check_limits(self.geometry).map_err(|why| ("geometry", why))?;
        self.workload_spec(1.0).check(&self.geometry)?;
        let engine = self.engine_config().check();
        engine.map_err(|(field, why)| (field, why.to_string()))
    }

    /// Validate this experiment and build its shared artifacts — see
    /// [`CompiledExperiment`].
    ///
    /// # Errors
    ///
    /// What `Experiment::check` refuses, and what the graph, the
    /// workload's cluster map or the engine refuse once built.
    pub fn compile(&self) -> Result<CompiledExperiment, String> {
        self.check().map_err(|(_, why)| why)?;
        let graph = Arc::new(self.network.build(self.geometry));
        // The template ignores the placeholder load; per-run loads come
        // from `workload_at`.
        let template = WorkloadTemplate::compile(self.geometry, &self.workload_spec(1.0))?;
        let net = CompiledNet::new(graph, self.engine_config())?;
        Ok(CompiledExperiment {
            net,
            template,
            seed: self.sim.seed,
        })
    }

    /// The engine settings a run uses: `sim` with the network's lane
    /// count.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            vcs: self.network.vcs(),
            ..self.sim.clone()
        }
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
#[derive(Clone, Debug)]
pub struct CompiledExperiment {
    net: CompiledNet,
    template: WorkloadTemplate,
    seed: u64,
}

impl CompiledExperiment {
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

    /// Simulate at the given offered load and seed on `st`, reusing its
    /// allocations. The error is typed, so a caller can tell a budget cut
    /// (carrying a partial report) from a watchdog trip or a config
    /// problem.
    pub fn run(
        &self,
        offered_load: f64,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, SimError> {
        let workload = self.template.workload_at(offered_load).map_err(SimError::Config)?;
        self.net.run(Traffic::Poisson(&workload), None, seed, st)
    }

    /// [`CompiledExperiment::run`] with a `String` error, for
    /// `benchmark/src/replay.rs` only; ROADMAP 2(d) deletes it.
    pub fn run_with(
        &self,
        offered_load: f64,
        seed: u64,
        st: &mut EngineState,
    ) -> Result<SimReport, String> {
        Ok(self.run(offered_load, seed, st)?)
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
        // `Experiment::run` (compile, fresh state) and a compiled run on a
        // state other loads have used agree at the same seed.
        let mut st = EngineState::new();
        for spec in NetworkSpec::paper_lineup() {
            let exp = quick(spec);
            let compiled = exp.compile().unwrap();
            for (load, seed) in [(0.2, 7u64), (0.5, 0xFEED)] {
                let mut seeded = exp.clone();
                seeded.sim.seed = seed;
                let fresh = seeded.run(load).unwrap();
                let fast = compiled.run(load, seed, &mut st).unwrap();
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
        let mut st = EngineState::new();
        let first = compiled.run(0.3, 1, &mut st).unwrap();
        compiled.run(0.7, 2, &mut st).unwrap();
        compiled.run(0.1, 3, &mut st).unwrap();
        let again = compiled.run(0.3, 1, &mut st).unwrap();
        assert!(first.bitwise_eq(&again));
    }

    #[test]
    fn compiled_run_uses_base_seed() {
        let exp = quick(NetworkSpec::tmin());
        let compiled = exp.compile().unwrap();
        let a = exp.run(0.25).unwrap();
        let b = compiled.run(0.25, compiled.base_seed(), &mut EngineState::new()).unwrap();
        assert!(a.bitwise_eq(&b));
    }
}
