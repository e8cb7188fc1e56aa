//! Run-time compilation of a [`FaultPlan`] against a network: one masked
//! routing table per fault epoch, re-checked for deadlock freedom.
//!
//! A [`minnet_topology::FaultSchedule`] knows *which lanes are dead when*;
//! the engine additionally needs to know *where worms may still go* under
//! each epoch's mask. [`CompiledFaults`] pairs every epoch with a
//! deliverability-pruned [`RouteTable`] ([`RouteTable::masked`]): a
//! candidate survives only if it is alive **and** still reaches the
//! destination's ejection channel through live channels. The engine then
//! never routes a worm into a dead end — an empty masked candidate list at
//! a non-ejection cell is a definitive "this destination is unreachable",
//! which drives both injection refusal and mid-route aborts.
//!
//! Each epoch's masked channel-dependency graph is re-checked with
//! [`minnet_routing::find_cycle`] at compile time. A subgraph of an
//! acyclic CDG is acyclic, so today this can never fire; it is kept so a
//! future routing rule whose masked network *could* deadlock fails loudly
//! here instead of hanging a run (the watchdog would catch that too, but
//! later and per-run).
//!
//! Compilation is the slow path — per epoch it costs a masked-table build
//! plus a CDG check — and happens once per `(network, plan)`; runs then
//! share the `CompiledFaults` read-only, exactly like [`crate::CompiledNet`].

use crate::engine::Planes;
use crate::error::SimError;
use minnet_routing::{find_cycle, masked_dependency_graph, DependencyRule, RouteTable};
use minnet_topology::{FaultPlan, NetworkGraph};

/// One fault epoch as the engine consumes it: the dead-lane mask plus the
/// deliverability-pruned routing table valid while the epoch lasts.
#[derive(Clone, Debug)]
pub(crate) struct CompiledEpoch {
    /// First cycle of the epoch.
    pub(crate) start: u64,
    /// The lanes failed this epoch, as the mask words the engine's
    /// `lanes.dead` is loaded from at the epoch's edge: bit `pl % 64` of word
    /// `pl / 64` for the lane at plane `pl`.
    pub(crate) dead_planes: Vec<u64>,
    /// Whether any lane is dead this epoch (fast-path gate).
    pub(crate) any_dead: bool,
    /// Masked routing table: candidates are alive and deliverable.
    pub(crate) routes: RouteTable,
}

/// A [`FaultPlan`] compiled against one network and routing table:
/// per-epoch dead-lane masks and masked routing tables, ready for
/// [`crate::CompiledNet::run`].
#[derive(Clone, Debug)]
pub struct CompiledFaults {
    pub(crate) epochs: Vec<CompiledEpoch>,
    trivial: bool,
}

impl CompiledFaults {
    /// Compile `plan` for `net`, pruning `base` per epoch and re-checking
    /// each masked CDG for cycles.
    ///
    /// # Errors
    ///
    /// Reports out-of-range fault targets, inverted repair windows, mask
    /// mismatches, and (defensively) a masked CDG cycle.
    pub(crate) fn compile(
        net: &NetworkGraph,
        base: &RouteTable,
        plan: &FaultPlan,
        planes: Planes<'_>,
    ) -> Result<CompiledFaults, SimError> {
        let schedule = plan.compile(net, planes.vcs).map_err(SimError::Fault)?;
        let vcs = u32::from(planes.vcs);
        let trivial = schedule.is_trivial();
        let mut epochs = Vec::with_capacity(schedule.epochs().len());
        for ep in schedule.epochs() {
            let routes = if ep.any_dead {
                if let Some(cycle) =
                    find_cycle(&masked_dependency_graph(net, DependencyRule::Paper, &ep.dead_channel))
                {
                    return Err(SimError::Fault(format!(
                        "masked channel-dependency graph has a cycle through channels \
                         {cycle:?} in the epoch starting at cycle {}",
                        ep.start
                    )));
                }
                base.masked(net, &ep.dead_channel).map_err(SimError::Routing)?
            } else {
                base.clone()
            };
            let mut dead_planes = vec![0u64; planes.count().div_ceil(64)];
            for (li, _) in ep.dead_lane.iter().enumerate().filter(|(_, &dead)| dead) {
                let pl = planes.of(li as u32 / vcs, li as u32 % vcs) as usize;
                dead_planes[pl / 64] |= 1u64 << (pl % 64);
            }
            epochs.push(CompiledEpoch {
                start: ep.start,
                dead_planes,
                any_dead: ep.any_dead,
                routes,
            });
        }
        Ok(CompiledFaults { epochs, trivial })
    }

    /// Whether no epoch kills any lane — the engine treats a trivial
    /// schedule exactly like no schedule at all, so such runs stay
    /// bit-identical to faultless ones.
    pub fn is_trivial(&self) -> bool {
        self.trivial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use minnet_topology::{build_bmin, build_unidir, Fault, FaultTarget, Geometry, UnidirKind};
    use std::sync::Arc;

    /// `plan` compiled for `net` under an otherwise default `cfg`.
    fn compile(
        net: &Arc<NetworkGraph>,
        plan: &FaultPlan,
        cfg: &EngineConfig,
    ) -> Result<CompiledFaults, SimError> {
        let base = RouteTable::build(net).unwrap();
        CompiledFaults::compile(net, &base, plan, Planes::new(net, cfg))
    }

    #[test]
    fn empty_plan_compiles_trivial_with_one_epoch() {
        let net = Arc::new(build_bmin(Geometry::new(2, 3)));
        let cf = compile(&net, &FaultPlan::new(), &EngineConfig::default()).unwrap();
        assert!(cf.is_trivial());
        assert_eq!(cf.epochs.len(), 1);
        assert_eq!(cf.epochs[0].start, 0);
        assert!(!cf.epochs[0].any_dead);
    }

    #[test]
    fn transient_fault_yields_three_epochs_and_restored_routes() {
        let net = Arc::new(build_unidir(Geometry::new(2, 3), UnidirKind::Cube, 1));
        let base = RouteTable::build(&net).unwrap();
        // Pick an inter-stage channel so the fault actually prunes routes.
        let victim = (0..net.num_channels() as u32)
            .find(|&c| {
                let d = net.channel(c);
                d.src.switch().is_some() && d.dst.switch().is_some()
            })
            .unwrap();
        let plan =
            FaultPlan::new().with(Fault::transient(FaultTarget::Channel(victim), 100, 500));
        let cf = compile(&net, &plan, &EngineConfig::default()).unwrap();
        assert!(!cf.is_trivial());
        assert_eq!(cf.epochs.len(), 3);
        assert_eq!(
            cf.epochs.iter().map(|e| e.start).collect::<Vec<_>>(),
            vec![0, 100, 500]
        );
        assert!(!cf.epochs[0].any_dead && cf.epochs[1].any_dead && !cf.epochs[2].any_dead);
        // Outside the fault window the masked table is the base table.
        for ep in [&cf.epochs[0], &cf.epochs[2]] {
            for dst in 0..net.geometry.nodes() {
                for ch in 0..net.num_channels() as u32 {
                    assert_eq!(ep.routes.candidates(ch, dst), base.candidates(ch, dst));
                }
            }
        }
        // Inside it, nothing routes over the victim.
        for dst in 0..net.geometry.nodes() {
            for ch in 0..net.num_channels() as u32 {
                assert!(!cf.epochs[1].routes.candidates(ch, dst).contains(&victim));
            }
        }
    }

    /// The compiled words are the plan's dead lanes through `position`:
    /// lane `vc` of channel `ch` at bit `(position(ch) << shift) | vc`,
    /// nothing else set.
    #[test]
    fn dead_plane_words_are_the_plans_dead_lanes_through_position() {
        use crate::active::DenseBitSet;
        for net in [build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 2), build_bmin(Geometry::new(4, 3))] {
            let net = Arc::new(net);
            let victims = minnet_topology::inter_stage_channels(&net);
            let (whole, lane) = (victims[3], victims[victims.len() - 2]);
            for (vcs, shift) in [(1u8, 0), (2, 1), (3, 2)] {
                let plan = FaultPlan::new()
                    .with(Fault::transient(FaultTarget::Channel(whole), 10, 20))
                    .with(Fault::transient(FaultTarget::Lane { channel: lane, vc: vcs - 1 }, 15, 30));
                let schedule = plan.compile(&net, vcs).unwrap();
                let cf = compile(&net, &plan, &EngineConfig { vcs, ..EngineConfig::default() }).unwrap();
                for (ep, want) in cf.epochs.iter().zip(schedule.epochs()) {
                    assert_eq!(ep.dead_planes.len(), (net.num_channels() << shift).div_ceil(64));
                    let mut planes: Vec<u32> = (0..want.dead_lane.len() as u32)
                        .filter(|&li| want.dead_lane[li as usize])
                        .map(|li| {
                            (net.position(li / u32::from(vcs)) << shift) | (li % u32::from(vcs))
                        })
                        .collect();
                    planes.sort_unstable();
                    let mut got = DenseBitSet::with_capacity(net.num_channels() << shift);
                    got.load(&ep.dead_planes);
                    let got: Vec<u32> = got.iter_set().collect();
                    assert_eq!(got, planes, "vcs {vcs} epoch at {}", ep.start);
                }
            }
        }
    }

    #[test]
    fn invalid_plan_surfaces_as_fault_error() {
        let net = Arc::new(build_bmin(Geometry::new(2, 3)));
        let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(99_999)));
        let err = compile(&net, &plan, &EngineConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)), "{err}");
    }
}
