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

use crate::error::SimError;
use minnet_routing::{find_cycle, masked_dependency_graph, DependencyRule, RouteTable};
use minnet_topology::{FaultPlan, NetworkGraph};

/// One fault epoch as the engine consumes it: the dead-lane mask plus the
/// deliverability-pruned routing table valid while the epoch lasts.
#[derive(Clone, Debug)]
pub(crate) struct CompiledEpoch {
    /// First cycle of the epoch.
    pub(crate) start: u64,
    /// `dead_lane[channel * vcs + vc]` — lane is failed this epoch.
    pub(crate) dead_lane: Vec<bool>,
    /// The same mask packed as `u64` words (bit `li % 64` of word
    /// `li / 64`), so the engine's word-parallel kernels fold the epoch's
    /// dead lanes into their per-word eligibility masks — and rebuild
    /// their permuted alive mask at an epoch boundary — by iterating set
    /// bits instead of scanning every lane's `bool`.
    pub(crate) dead_lane_words: Vec<u64>,
    /// Whether any lane is dead this epoch (fast-path gate).
    pub(crate) any_dead: bool,
    /// Masked routing table: candidates are alive and deliverable.
    pub(crate) routes: RouteTable,
}

/// A [`FaultPlan`] compiled against one network and routing table:
/// per-epoch dead-lane masks and masked routing tables, ready for
/// [`crate::CompiledNet::run_poisson_faulted`] and friends.
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
        vcs: u8,
    ) -> Result<CompiledFaults, SimError> {
        let schedule = plan.compile(net, vcs).map_err(SimError::Fault)?;
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
            let mut dead_lane_words = vec![0u64; ep.dead_lane.len().div_ceil(64)];
            for (li, &dead) in ep.dead_lane.iter().enumerate() {
                if dead {
                    dead_lane_words[li / 64] |= 1u64 << (li % 64);
                }
            }
            epochs.push(CompiledEpoch {
                start: ep.start,
                dead_lane: ep.dead_lane.clone(),
                dead_lane_words,
                any_dead: ep.any_dead,
                routes,
            });
        }
        Ok(CompiledFaults { epochs, trivial })
    }

    /// Number of fault epochs (the initial epoch at cycle 0 included).
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
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
    use minnet_topology::{build_bmin, build_unidir, Fault, FaultTarget, Geometry, UnidirKind};
    use std::sync::Arc;

    #[test]
    fn empty_plan_compiles_trivial_with_one_epoch() {
        let net = Arc::new(build_bmin(Geometry::new(2, 3)));
        let base = RouteTable::build(&net).unwrap();
        let cf = CompiledFaults::compile(&net, &base, &FaultPlan::new(), 1).unwrap();
        assert!(cf.is_trivial());
        assert_eq!(cf.num_epochs(), 1);
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
        let cf = CompiledFaults::compile(&net, &base, &plan, 1).unwrap();
        assert!(!cf.is_trivial());
        assert_eq!(cf.num_epochs(), 3);
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

    #[test]
    fn dead_lane_words_mirror_the_bool_mask() {
        let net = Arc::new(build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 1));
        let base = RouteTable::build(&net).unwrap();
        let victim = (0..net.num_channels() as u32)
            .find(|&c| {
                let d = net.channel(c);
                d.src.switch().is_some() && d.dst.switch().is_some()
            })
            .unwrap();
        let plan =
            FaultPlan::new().with(Fault::transient(FaultTarget::Channel(victim), 10, 20));
        for vcs in [1u8, 2] {
            let cf = CompiledFaults::compile(&net, &base, &plan, vcs).unwrap();
            for ep in &cf.epochs {
                assert_eq!(ep.dead_lane_words.len(), ep.dead_lane.len().div_ceil(64));
                for (li, &dead) in ep.dead_lane.iter().enumerate() {
                    let bit = ep.dead_lane_words[li / 64] >> (li % 64) & 1 == 1;
                    assert_eq!(bit, dead, "vcs={vcs} lane {li}");
                }
            }
        }
    }

    #[test]
    fn invalid_plan_surfaces_as_fault_error() {
        let net = Arc::new(build_bmin(Geometry::new(2, 3)));
        let base = RouteTable::build(&net).unwrap();
        let plan = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(99_999)));
        let err = CompiledFaults::compile(&net, &base, &plan, 1).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)), "{err}");
    }
}
