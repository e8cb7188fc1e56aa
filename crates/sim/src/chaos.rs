//! Restart-style chaos schedules: seed-deterministic transient-fault
//! generators that compile onto the existing [`FaultPlan`] machinery.
//!
//! A [`ChaosSchedule`] is the declarative form of "random things keep
//! breaking and coming back": pick `count` distinct targets of one
//! [`ChaosTarget`] class, and give each of them `rounds` transient
//! outages. Each outage begins a uniformly drawn `min_onset..=max_onset`
//! cycles after the target last became (or started) available, lasts
//! exactly `duration` cycles, and is followed by a `cooldown` during
//! which the target is guaranteed live — the restart pattern of
//! chaos-testing harnesses, transplanted to link/lane/switch failures.
//!
//! Everything is derived from a single `u64` seed via SplitMix64
//! ([`minnet_topology::splitmix64`]): the same `(network, schedule,
//! seed)` triple always yields the same [`FaultPlan`], so a chaos run is
//! exactly as reproducible as a baseline run — the randomness only moves
//! into the seed. The compiled plan then flows through the ordinary
//! per-epoch mask pipeline ([`crate::CompiledFaults`]), inheriting its
//! masked-routing, deadlock-recheck, and abort/refusal semantics.
//!
//! Degenerate parameters (an empty outage, an inverted onset range, a
//! zero-target or zero-round schedule) are rejected at compile time with
//! typed [`SimError::Fault`] values rather than silently generating
//! no-op masks, and the generated plan is re-validated through
//! [`FaultPlan::check`], whose overlap detection proves the per-target
//! windows are disjoint by construction.

use crate::error::SimError;
use minnet_topology::{
    inter_stage_channels, splitmix64, Fault, FaultPlan, FaultTarget, NetworkGraph,
};

/// Which class of component a [`ChaosSchedule`] knocks out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosTarget {
    /// Whole inter-stage channels (every virtual lane at once).
    Channel,
    /// Single virtual lanes of inter-stage channels.
    Lane,
    /// Whole switches (every incident channel).
    Switch,
}

impl ChaosTarget {
    /// Lower-case class name, as scenario files spell it.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosTarget::Channel => "channel",
            ChaosTarget::Lane => "lane",
            ChaosTarget::Switch => "switch",
        }
    }
}

/// A declarative restart-style fault storm; see the module docs for the
/// timing model. Compile with [`ChaosSchedule::compile_plan`], then
/// [`crate::CompiledNet::compile_faults`] for the engine form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosSchedule {
    /// Component class to disrupt.
    pub target: ChaosTarget,
    /// Distinct targets to disrupt (drawn without replacement).
    pub count: usize,
    /// Minimum cycles from a target's availability to its next outage.
    pub min_onset: u64,
    /// Maximum cycles from a target's availability to its next outage.
    pub max_onset: u64,
    /// Length of each outage in cycles (the dead window).
    pub duration: u64,
    /// Guaranteed-live cycles after each repair before the next draw.
    pub cooldown: u64,
    /// Outages per target.
    pub rounds: u32,
}

impl ChaosSchedule {
    /// Check the schedule's parameters alone (network-independent).
    ///
    /// # Errors
    ///
    /// Rejects zero-duration outages, inverted onset ranges, and
    /// schedules that would generate no faults at all.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.duration == 0 {
            return Err(SimError::Fault(
                "chaos schedule: outage duration must be at least 1 cycle \
                 (a zero-duration outage would mask nothing)"
                    .to_string(),
            ));
        }
        if self.max_onset < self.min_onset {
            return Err(SimError::Fault(format!(
                "chaos schedule: max_onset {} is below min_onset {}",
                self.max_onset, self.min_onset
            )));
        }
        if self.count == 0 {
            return Err(SimError::Fault(
                "chaos schedule: target count must be at least 1".to_string(),
            ));
        }
        if self.rounds == 0 {
            return Err(SimError::Fault(
                "chaos schedule: rounds must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// Expand the schedule against `net` into a concrete [`FaultPlan`],
    /// all randomness drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Anything [`ChaosSchedule::validate`] rejects, plus a `count`
    /// exceeding the target pool of this network/class.
    pub fn compile_plan(
        &self,
        net: &NetworkGraph,
        vcs: u8,
        seed: u64,
    ) -> Result<FaultPlan, SimError> {
        self.validate()?;
        let channels = inter_stage_channels(net);
        let mut pool: Vec<FaultTarget> = match self.target {
            ChaosTarget::Channel => channels.into_iter().map(FaultTarget::Channel).collect(),
            ChaosTarget::Lane => channels
                .into_iter()
                .flat_map(|c| (0..vcs).map(move |vc| FaultTarget::Lane { channel: c, vc }))
                .collect(),
            ChaosTarget::Switch => (0..net.num_switches() as u32)
                .map(FaultTarget::Switch)
                .collect(),
        };
        if self.count > pool.len() {
            return Err(SimError::Fault(format!(
                "chaos schedule: {} {} targets requested but the network has only {}",
                self.count,
                self.target.name(),
                pool.len()
            )));
        }
        let mut state = seed;
        let span = self.max_onset - self.min_onset;
        let mut plan = FaultPlan::new();
        // Partial Fisher–Yates: a uniform sample without replacement.
        for i in 0..self.count {
            let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        for target in pool.iter().take(self.count).copied() {
            // The target's timeline: available at cursor, dies after a
            // drawn delay, repairs after `duration`, then cools down.
            // Windows on one target are disjoint by construction —
            // adjacent at worst (min_onset == cooldown == 0) — which
            // `FaultPlan::check` accepts as a legal restart pattern.
            let mut cursor = 0u64;
            for _round in 0..self.rounds {
                let delay = self.min_onset
                    + if span == 0 {
                        0
                    } else {
                        splitmix64(&mut state) % (span + 1)
                    };
                let onset = cursor + delay;
                let repair = onset + self.duration;
                plan.push(Fault::transient(target, onset, repair));
                cursor = repair + self.cooldown;
            }
        }
        plan.check(net, vcs).map_err(|e| {
            SimError::Fault(format!("chaos schedule generated an invalid plan: {e}"))
        })?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::{build_unidir, Geometry, UnidirKind};

    fn tmin() -> NetworkGraph {
        build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 1)
    }

    fn storm() -> ChaosSchedule {
        ChaosSchedule {
            target: ChaosTarget::Channel,
            count: 3,
            min_onset: 100,
            max_onset: 500,
            duration: 200,
            cooldown: 50,
            rounds: 2,
        }
    }

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let net = tmin();
        let a = storm().compile_plan(&net, 1, 42).unwrap();
        let b = storm().compile_plan(&net, 1, 42).unwrap();
        assert_eq!(a, b);
        let c = storm().compile_plan(&net, 1, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn windows_respect_onset_duration_and_cooldown() {
        let net = tmin();
        let s = storm();
        let plan = s.compile_plan(&net, 1, 7).unwrap();
        assert_eq!(plan.faults().len(), s.count * s.rounds as usize);
        // Group the faults back per target: rounds are pushed in order.
        for faults in plan.faults().chunks(s.rounds as usize) {
            let mut cursor = 0u64;
            for f in faults {
                assert_eq!(f.target, faults[0].target, "one target per chunk");
                let repair = f.repair.expect("chaos outages are transient");
                assert_eq!(repair - f.onset, s.duration);
                assert!(f.onset >= cursor + s.min_onset);
                assert!(f.onset <= cursor + s.max_onset);
                cursor = repair + s.cooldown;
            }
        }
    }

    #[test]
    fn targets_are_distinct_inter_stage_channels() {
        let net = tmin();
        let single_round = ChaosSchedule {
            count: 8,
            min_onset: 0,
            max_onset: 100,
            duration: 50,
            cooldown: 0,
            rounds: 1,
            ..storm()
        };
        let plan = single_round.compile_plan(&net, 1, 11).unwrap();
        let targets: Vec<FaultTarget> = plan.faults().iter().map(|f| f.target).collect();
        assert_eq!(targets.len(), 8);
        for (i, t) in targets.iter().enumerate() {
            assert!(!targets[..i].contains(t), "duplicate chaos target {t:?}");
        }
        for t in targets {
            let FaultTarget::Channel(c) = t else {
                panic!("channel storms target channels")
            };
            let d = net.channel(c);
            assert!(d.src.switch().is_some() && d.dst.switch().is_some());
        }
    }

    #[test]
    fn lane_and_switch_classes_produce_matching_targets() {
        let net = tmin();
        let mut s = storm();
        s.target = ChaosTarget::Lane;
        let plan = s.compile_plan(&net, 2, 3).unwrap();
        assert!(plan
            .faults()
            .iter()
            .all(|f| matches!(f.target, FaultTarget::Lane { vc, .. } if vc < 2)));
        s.target = ChaosTarget::Switch;
        let plan = s.compile_plan(&net, 1, 3).unwrap();
        assert!(plan
            .faults()
            .iter()
            .all(|f| matches!(f.target, FaultTarget::Switch(_))));
    }

    #[test]
    fn back_to_back_rounds_compile_into_adjacent_epochs() {
        // min_onset == max_onset == cooldown == 0: each round starts the
        // cycle its predecessor repairs — the tightest legal restart
        // pattern on one link. It must pass plan validation and compile
        // into merged adjacent epochs rather than erroring as a
        // duplicate.
        let net = tmin();
        let s = ChaosSchedule {
            target: ChaosTarget::Channel,
            count: 1,
            min_onset: 0,
            max_onset: 0,
            duration: 100,
            cooldown: 0,
            rounds: 3,
        };
        let plan = s.compile_plan(&net, 1, 9).unwrap();
        let onsets: Vec<u64> = plan.faults().iter().map(|f| f.onset).collect();
        assert_eq!(onsets, vec![0, 100, 200]);
        let sched = plan.compile(&net, 1).unwrap();
        // One epoch from 0 (dead throughout — windows chain seamlessly)
        // and the repair epoch at 300.
        let starts: Vec<u64> = sched.epochs().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 100, 200, 300]);
        assert!(sched.epochs()[..3].iter().all(|e| e.any_dead));
        assert!(!sched.epochs()[3].any_dead);
    }

    #[test]
    fn degenerate_schedules_are_rejected_with_typed_errors() {
        let net = tmin();
        let mut s = storm();
        s.duration = 0;
        let err = s.compile_plan(&net, 1, 1).unwrap_err();
        assert!(matches!(&err, SimError::Fault(m) if m.contains("duration")), "{err}");
        let mut s = storm();
        s.max_onset = 10; // below min_onset 100
        assert!(matches!(s.compile_plan(&net, 1, 1), Err(SimError::Fault(_))));
        let mut s = storm();
        s.count = 0;
        assert!(matches!(s.validate(), Err(SimError::Fault(_))));
        let mut s = storm();
        s.rounds = 0;
        assert!(matches!(s.validate(), Err(SimError::Fault(_))));
        let mut s = storm();
        s.count = 1_000_000;
        let err = s.compile_plan(&net, 1, 1).unwrap_err();
        assert!(matches!(&err, SimError::Fault(m) if m.contains("only")), "{err}");
    }
}
