//! Deterministic fault plans: scheduled link / lane / switch failures.
//!
//! The paper's §3 comparison is a path-diversity story — TMIN has exactly
//! one path per (source, destination) pair, DMIN offers `d` parallel lanes
//! per hop, BMIN's turnaround routing `k^t` alternative paths. A fault
//! model turns that diversity into a measurable *resilience* axis: kill a
//! channel and ask which networks still deliver.
//!
//! A [`FaultPlan`] is a plain list of [`Fault`]s — each a
//! [`FaultTarget`] (physical channel, single virtual lane, or whole
//! switch) with an onset cycle and an optional repair cycle. Plans are
//! data: deterministic, seed-reproducible (see
//! [`FaultPlan::random_inter_stage_links`]), and comparable. Nothing here
//! knows about worms or time beyond cycle numbers; the simulation engine
//! consumes the *compiled* form.
//!
//! [`FaultPlan::compile`] lowers a plan into a [`FaultSchedule`]: the
//! sorted sequence of **fault epochs** — maximal intervals over which the
//! set of dead lanes is constant — each carrying dense dead-lane and
//! dead-channel masks (lane `li = channel * vcs + vc`, the engine's lane
//! indexing). An engine run walks the epochs monotonically; everything
//! expensive (per-epoch masked routing tables, deadlock re-checks) is
//! computed once per epoch at compile time, never per cycle.

use crate::graph::{ChannelId, Endpoint, NetworkGraph, SwitchId};

/// What a single fault takes down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTarget {
    /// A whole physical channel — every virtual lane of it.
    Channel(ChannelId),
    /// One virtual lane of a physical channel.
    Lane {
        /// The physical channel.
        channel: ChannelId,
        /// The virtual-channel index within it.
        vc: u8,
    },
    /// A whole switch — every channel entering or leaving it.
    Switch(SwitchId),
}

/// One scheduled failure: a target, its onset, and an optional repair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// What fails.
    pub target: FaultTarget,
    /// First cycle the target is dead.
    pub onset: u64,
    /// First cycle the target is live again; `None` = permanent.
    pub repair: Option<u64>,
}

impl Fault {
    /// A permanent fault present from cycle 0.
    pub fn permanent(target: FaultTarget) -> Fault {
        Fault {
            target,
            onset: 0,
            repair: None,
        }
    }

    /// A transient fault dead over `[onset, repair)`.
    pub fn transient(target: FaultTarget, onset: u64, repair: u64) -> Fault {
        Fault {
            target,
            onset,
            repair: Some(repair),
        }
    }

    /// Whether the fault is active at cycle `t`.
    fn active_at(&self, t: u64) -> bool {
        self.onset <= t && self.repair.is_none_or(|r| t < r)
    }
}

/// A deterministic schedule of failures, validated against a network and
/// compiled into per-epoch dead masks by [`FaultPlan::compile`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// Everything [`FaultPlan::check`] can reject: targets outside the
/// network, degenerate fault windows, and duplicated targets whose
/// windows overlap. Each variant names the offending fault by its index
/// in the plan, so scenario layers can point at the exact declaration.
///
/// A degenerate window (`repair ≤ onset`) or an overlapping duplicate
/// used to compile into a silent no-op / redundant mask; both are almost
/// certainly authoring mistakes, so they are typed errors instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPlanError {
    /// A channel target beyond the network's channel count.
    ChannelOutOfRange {
        /// Index of the offending fault in the plan.
        fault: usize,
        /// The out-of-range channel.
        channel: ChannelId,
        /// Channels the network actually has.
        num_channels: u32,
    },
    /// A lane target whose virtual-channel index is beyond the lane count.
    LaneOutOfRange {
        /// Index of the offending fault in the plan.
        fault: usize,
        /// The out-of-range virtual-channel index.
        vc: u8,
        /// Lanes each channel actually has.
        vcs: u8,
    },
    /// A switch target beyond the network's switch count.
    SwitchOutOfRange {
        /// Index of the offending fault in the plan.
        fault: usize,
        /// The out-of-range switch.
        switch: SwitchId,
        /// Switches the network actually has.
        num_switches: u32,
    },
    /// A transient whose window `[onset, repair)` is empty — a
    /// zero-duration fault, or a repair at/before its onset. Compiling
    /// it would silently mask nothing.
    EmptyWindow {
        /// Index of the offending fault in the plan.
        fault: usize,
        /// First dead cycle.
        onset: u64,
        /// Scheduled repair cycle (≤ onset).
        repair: u64,
    },
    /// Two faults hit the *same* target over overlapping windows — a
    /// duplicated declaration whose second entry changes nothing.
    DuplicateTarget {
        /// Index of the earlier overlapping fault.
        first: usize,
        /// Index of the later overlapping fault.
        second: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::ChannelOutOfRange {
                fault,
                channel,
                num_channels,
            } => write!(
                f,
                "fault {fault}: channel {channel} out of range \
                 (network has {num_channels} channels)"
            ),
            FaultPlanError::LaneOutOfRange { fault, vc, vcs } => write!(
                f,
                "fault {fault}: lane {vc} out of range (channels have {vcs} lanes)"
            ),
            FaultPlanError::SwitchOutOfRange {
                fault,
                switch,
                num_switches,
            } => write!(
                f,
                "fault {fault}: switch {switch} out of range \
                 (network has {num_switches} switches)"
            ),
            FaultPlanError::EmptyWindow {
                fault,
                onset,
                repair,
            } => write!(
                f,
                "fault {fault}: repair cycle {repair} is not after onset {onset} \
                 (the fault window is empty and would mask nothing)"
            ),
            FaultPlanError::DuplicateTarget { first, second } => write!(
                f,
                "faults {first} and {second} hit the same target over overlapping \
                 windows; merge them into one fault"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// SplitMix64 step — the workspace's standard seed-expansion primitive,
/// public so fault/chaos plan generators in other crates derive their
/// randomness from a bare `u64` without an RNG dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Builder-style [`FaultPlan::push`].
    #[must_use]
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.push(fault);
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `count` distinct permanent single-channel faults drawn uniformly
    /// (seed-reproducibly) from the network's **inter-stage** links —
    /// channels connecting two switches, the interesting targets for the
    /// path-diversity comparison (injection/ejection channels are
    /// single-attached by construction and disconnect a node trivially).
    ///
    /// # Errors
    ///
    /// Reports a `count` exceeding the number of inter-stage links.
    pub fn random_inter_stage_links(
        net: &NetworkGraph,
        count: usize,
        seed: u64,
    ) -> Result<FaultPlan, String> {
        let mut pool = inter_stage_channels(net);
        if count > pool.len() {
            return Err(format!(
                "requested {count} faulted links but the network has only {} \
                 inter-stage channels",
                pool.len()
            ));
        }
        let mut state = seed;
        let mut plan = FaultPlan::new();
        // Partial Fisher–Yates: the first `count` entries after i swaps
        // are a uniform sample without replacement.
        for i in 0..count {
            let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
            plan.push(Fault::permanent(FaultTarget::Channel(pool[i])));
        }
        Ok(plan)
    }

    /// Check every fault against `net` and the lane count `vcs`.
    ///
    /// # Errors
    ///
    /// Reports out-of-range channels/switches/lanes, degenerate windows
    /// (repair at/before onset — a silent no-op mask), and duplicated
    /// targets with overlapping windows, naming the offending fault(s).
    pub fn check(&self, net: &NetworkGraph, vcs: u8) -> Result<(), FaultPlanError> {
        let nch = net.num_channels() as u32;
        let nsw = net.num_switches() as u32;
        for (i, f) in self.faults.iter().enumerate() {
            match f.target {
                FaultTarget::Channel(c) if c >= nch => {
                    return Err(FaultPlanError::ChannelOutOfRange {
                        fault: i,
                        channel: c,
                        num_channels: nch,
                    });
                }
                FaultTarget::Lane { channel, vc } => {
                    if channel >= nch {
                        return Err(FaultPlanError::ChannelOutOfRange {
                            fault: i,
                            channel,
                            num_channels: nch,
                        });
                    }
                    if vc >= vcs {
                        return Err(FaultPlanError::LaneOutOfRange { fault: i, vc, vcs });
                    }
                }
                FaultTarget::Switch(s) if s >= nsw => {
                    return Err(FaultPlanError::SwitchOutOfRange {
                        fault: i,
                        switch: s,
                        num_switches: nsw,
                    });
                }
                _ => {}
            }
            if let Some(r) = f.repair {
                if r <= f.onset {
                    return Err(FaultPlanError::EmptyWindow {
                        fault: i,
                        onset: f.onset,
                        repair: r,
                    });
                }
            }
        }
        // Duplicate detection: sort fault indices by (target, onset) so
        // overlap on the same target is a same-neighbour property —
        // window ends are monotone within a target because each window
        // must start at or after the previous one's onset. Back-to-back
        // windows (one's repair == the next's onset) are legal; only a
        // true overlap is a duplicate.
        let key = |t: FaultTarget| -> (u8, u32, u32) {
            match t {
                FaultTarget::Channel(c) => (0, c, 0),
                FaultTarget::Lane { channel, vc } => (1, channel, u32::from(vc)),
                FaultTarget::Switch(s) => (2, s, 0),
            }
        };
        let mut order: Vec<usize> = (0..self.faults.len()).collect();
        order.sort_by_key(|&i| (key(self.faults[i].target), self.faults[i].onset, i));
        for w in order.windows(2) {
            let (a, b) = (self.faults[w[0]], self.faults[w[1]]);
            if key(a.target) == key(b.target) && a.repair.is_none_or(|r| b.onset < r) {
                return Err(FaultPlanError::DuplicateTarget {
                    first: w[0].min(w[1]),
                    second: w[0].max(w[1]),
                });
            }
        }
        Ok(())
    }

    /// Lower the plan into its [`FaultSchedule`] for a network with `vcs`
    /// virtual lanes per channel: one epoch per maximal interval with a
    /// constant dead set, each with dense lane/channel masks.
    ///
    /// # Errors
    ///
    /// Anything [`FaultPlan::check`] reports, as its display form.
    pub fn compile(&self, net: &NetworkGraph, vcs: u8) -> Result<FaultSchedule, String> {
        self.check(net, vcs).map_err(|e| e.to_string())?;
        let nch = net.num_channels();
        let lanes = nch * vcs as usize;

        // Epoch boundaries: cycle 0 plus every onset/repair, deduplicated.
        let mut starts: Vec<u64> = vec![0];
        for f in &self.faults {
            starts.push(f.onset);
            if let Some(r) = f.repair {
                starts.push(r);
            }
        }
        starts.sort_unstable();
        starts.dedup();

        let mut epochs = Vec::with_capacity(starts.len());
        for &start in &starts {
            let mut dead_lane = vec![false; lanes];
            for f in &self.faults {
                if !f.active_at(start) {
                    continue;
                }
                let kill_channel = |c: ChannelId, dead_lane: &mut Vec<bool>| {
                    let base = c as usize * vcs as usize;
                    dead_lane[base..base + vcs as usize].fill(true);
                };
                match f.target {
                    FaultTarget::Channel(c) => kill_channel(c, &mut dead_lane),
                    FaultTarget::Lane { channel, vc } => {
                        dead_lane[channel as usize * vcs as usize + vc as usize] = true;
                    }
                    FaultTarget::Switch(s) => {
                        for c in 0..nch as u32 {
                            let ch = net.channel(c);
                            let touches = |e: Endpoint| e.switch() == Some(s);
                            if touches(ch.src) || touches(ch.dst) {
                                kill_channel(c, &mut dead_lane);
                            }
                        }
                    }
                }
            }
            let dead_channel: Vec<bool> = (0..nch)
                .map(|c| {
                    dead_lane[c * vcs as usize..(c + 1) * vcs as usize]
                        .iter()
                        .all(|&d| d)
                })
                .collect();
            let any_dead = dead_lane.iter().any(|&d| d);
            epochs.push(FaultEpoch {
                start,
                dead_lane,
                dead_channel,
                any_dead,
            });
        }
        Ok(FaultSchedule { epochs })
    }
}

/// One fault epoch: a start cycle and the dead set that holds from there
/// until the next epoch begins.
#[derive(Clone, Debug)]
pub struct FaultEpoch {
    /// First cycle of the epoch.
    pub start: u64,
    /// `dead_lane[channel * vcs + vc]` — lane is unusable this epoch.
    pub dead_lane: Vec<bool>,
    /// `dead_channel[channel]` — *every* lane of the channel is dead.
    pub dead_channel: Vec<bool>,
    /// Whether any lane at all is dead this epoch (fast-path gate).
    pub any_dead: bool,
}

/// A [`FaultPlan`] compiled against one network: the time-sorted epochs
/// with their dead masks. Epoch 0 always starts at cycle 0.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    epochs: Vec<FaultEpoch>,
}

/// Every channel connecting two switches, ascending — the standard
/// fault-target pool. Injection/ejection channels are excluded: they are
/// single-attached by construction, so killing one disconnects a node
/// trivially rather than exercising path diversity.
pub fn inter_stage_channels(net: &NetworkGraph) -> Vec<ChannelId> {
    (0..net.num_channels() as u32)
        .filter(|&c| {
            let ch = net.channel(c);
            ch.src.switch().is_some() && ch.dst.switch().is_some()
        })
        .collect()
}

impl FaultSchedule {
    /// The epochs, sorted by start cycle; the first starts at 0.
    pub fn epochs(&self) -> &[FaultEpoch] {
        &self.epochs
    }

    /// Whether no epoch kills anything — the schedule of an empty plan
    /// (or one whose faults cancel out), behaviourally a no-fault run.
    pub fn is_trivial(&self) -> bool {
        self.epochs.iter().all(|e| !e.any_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Geometry;
    use crate::bmin::build_bmin;
    use crate::unidir::{build_unidir, UnidirKind};

    fn tmin() -> NetworkGraph {
        build_unidir(Geometry::new(4, 3), UnidirKind::Cube, 1)
    }

    #[test]
    fn empty_plan_compiles_trivial() {
        let net = tmin();
        let s = FaultPlan::new().compile(&net, 1).unwrap();
        assert_eq!(s.epochs().len(), 1);
        assert_eq!(s.epochs()[0].start, 0);
        assert!(s.is_trivial());
        assert!(!s.epochs()[0].any_dead);
    }

    #[test]
    fn permanent_channel_fault_masks_all_lanes() {
        let net = tmin();
        let s = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Channel(5)))
            .compile(&net, 2)
            .unwrap();
        assert_eq!(s.epochs().len(), 1);
        let e = &s.epochs()[0];
        assert!(e.dead_lane[10] && e.dead_lane[11]);
        assert!(e.dead_channel[5]);
        assert!(!e.dead_channel[4]);
        assert!(e.any_dead && !s.is_trivial());
    }

    #[test]
    fn lane_fault_keeps_channel_partially_alive() {
        let net = tmin();
        let s = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Lane { channel: 3, vc: 1 }))
            .compile(&net, 2)
            .unwrap();
        let e = &s.epochs()[0];
        assert!(!e.dead_lane[6] && e.dead_lane[7]);
        assert!(!e.dead_channel[3], "one live lane keeps the channel up");
    }

    #[test]
    fn transient_fault_builds_three_epochs() {
        let net = tmin();
        let s = FaultPlan::new()
            .with(Fault::transient(FaultTarget::Channel(7), 100, 250))
            .compile(&net, 1)
            .unwrap();
        let starts: Vec<u64> = s.epochs().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 100, 250]);
        assert!(!s.epochs()[0].dead_channel[7]);
        assert!(s.epochs()[1].dead_channel[7]);
        assert!(!s.epochs()[2].dead_channel[7]);
        assert!(!s.is_trivial());
    }

    #[test]
    fn switch_fault_kills_every_incident_channel() {
        let net = tmin();
        let s = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Switch(0)))
            .compile(&net, 1)
            .unwrap();
        let e = &s.epochs()[0];
        for c in 0..net.num_channels() as u32 {
            let ch = net.channel(c);
            let incident =
                ch.src.switch() == Some(0) || ch.dst.switch() == Some(0);
            assert_eq!(e.dead_channel[c as usize], incident, "channel {c}");
        }
    }

    #[test]
    fn validation_catches_bad_faults() {
        let net = tmin();
        let nch = net.num_channels() as u32;
        let bad = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(nch)));
        assert!(bad.check(&net, 1).unwrap_err().to_string().contains("out of range"));
        let bad = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Lane { channel: 0, vc: 2 }));
        assert!(bad.check(&net, 2).unwrap_err().to_string().contains("lane 2"));
        let bad = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Switch(10_000)));
        assert!(bad.check(&net, 1).is_err());
        let bad = FaultPlan::new().with(Fault {
            target: FaultTarget::Channel(0),
            onset: 10,
            repair: Some(10),
        });
        assert!(bad.check(&net, 1).unwrap_err().to_string().contains("repair"));
    }

    #[test]
    fn random_links_are_seed_reproducible_and_inter_stage() {
        for net in [tmin(), build_bmin(Geometry::new(4, 3))] {
            let a = FaultPlan::random_inter_stage_links(&net, 5, 42).unwrap();
            let b = FaultPlan::random_inter_stage_links(&net, 5, 42).unwrap();
            assert_eq!(a, b, "same seed, same plan");
            let c = FaultPlan::random_inter_stage_links(&net, 5, 43).unwrap();
            assert_ne!(a, c, "different seed, different plan");
            let mut seen = Vec::new();
            for f in a.faults() {
                let FaultTarget::Channel(ch) = f.target else {
                    panic!("link faults must target channels");
                };
                assert!(f.onset == 0 && f.repair.is_none());
                let desc = net.channel(ch);
                assert!(desc.src.switch().is_some() && desc.dst.switch().is_some());
                assert!(!seen.contains(&ch), "duplicate faulted link");
                seen.push(ch);
            }
        }
    }

    #[test]
    fn random_links_reject_oversized_requests() {
        let net = tmin();
        assert!(FaultPlan::random_inter_stage_links(&net, 100_000, 1).is_err());
    }

    #[test]
    fn check_types_degenerate_windows() {
        let net = tmin();
        // Zero-duration transient: repair == onset.
        let bad = FaultPlan::new().with(Fault {
            target: FaultTarget::Channel(0),
            onset: 10,
            repair: Some(10),
        });
        assert_eq!(
            bad.check(&net, 1),
            Err(FaultPlanError::EmptyWindow {
                fault: 0,
                onset: 10,
                repair: 10
            })
        );
        // Repair before onset.
        let bad = FaultPlan::new().with(Fault {
            target: FaultTarget::Channel(0),
            onset: 10,
            repair: Some(3),
        });
        assert!(matches!(
            bad.check(&net, 1),
            Err(FaultPlanError::EmptyWindow { repair: 3, .. })
        ));
        // The display form still mentions "repair" for legacy matching.
        assert!(bad.check(&net, 1).unwrap_err().to_string().contains("repair"));
    }

    #[test]
    fn check_types_out_of_range_targets() {
        let net = tmin();
        let nch = net.num_channels() as u32;
        let bad = FaultPlan::new().with(Fault::permanent(FaultTarget::Channel(nch)));
        assert!(matches!(
            bad.check(&net, 1),
            Err(FaultPlanError::ChannelOutOfRange { channel, .. }) if channel == nch
        ));
        let bad =
            FaultPlan::new().with(Fault::permanent(FaultTarget::Lane { channel: 0, vc: 2 }));
        assert_eq!(
            bad.check(&net, 2),
            Err(FaultPlanError::LaneOutOfRange {
                fault: 0,
                vc: 2,
                vcs: 2
            })
        );
        let bad = FaultPlan::new().with(Fault::permanent(FaultTarget::Switch(10_000)));
        assert!(matches!(
            bad.check(&net, 1),
            Err(FaultPlanError::SwitchOutOfRange { .. })
        ));
    }

    #[test]
    fn check_rejects_overlapping_duplicate_targets() {
        let net = tmin();
        // Same channel, overlapping windows — a duplicate.
        let bad = FaultPlan::new()
            .with(Fault::transient(FaultTarget::Channel(3), 0, 100))
            .with(Fault::transient(FaultTarget::Channel(3), 50, 150));
        assert_eq!(
            bad.check(&net, 1),
            Err(FaultPlanError::DuplicateTarget {
                first: 0,
                second: 1
            })
        );
        // Two permanents on the same switch overlap by definition.
        let bad = FaultPlan::new()
            .with(Fault::permanent(FaultTarget::Switch(1)))
            .with(Fault::permanent(FaultTarget::Switch(1)));
        assert!(matches!(
            bad.check(&net, 1),
            Err(FaultPlanError::DuplicateTarget { .. })
        ));
        // Insertion order does not hide the overlap.
        let bad = FaultPlan::new()
            .with(Fault::transient(FaultTarget::Channel(3), 50, 150))
            .with(Fault::transient(FaultTarget::Channel(3), 0, 100));
        assert!(matches!(
            bad.check(&net, 1),
            Err(FaultPlanError::DuplicateTarget { .. })
        ));
    }

    #[test]
    fn check_allows_back_to_back_and_distinct_targets() {
        let net = tmin();
        // Adjacent windows on one channel (repair == next onset) are a
        // legal restart pattern, not a duplicate.
        let ok = FaultPlan::new()
            .with(Fault::transient(FaultTarget::Channel(3), 0, 100))
            .with(Fault::transient(FaultTarget::Channel(3), 100, 200))
            .with(Fault::transient(FaultTarget::Channel(3), 250, 300));
        assert_eq!(ok.check(&net, 1), Ok(()));
        assert_eq!(ok.compile(&net, 1).unwrap().epochs().len(), 5);
        // Overlapping windows on *different* target classes are fine even
        // when they touch the same channel.
        let ok = FaultPlan::new()
            .with(Fault::transient(FaultTarget::Channel(3), 0, 100))
            .with(Fault::transient(FaultTarget::Lane { channel: 3, vc: 0 }, 50, 150));
        assert_eq!(ok.check(&net, 2), Ok(()));
    }

    #[test]
    fn fault_plan_error_displays_and_chains() {
        let e = FaultPlanError::DuplicateTarget { first: 1, second: 4 };
        assert!(e.to_string().contains("faults 1 and 4"));
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn inter_stage_pool_excludes_terminal_channels() {
        for net in [tmin(), build_bmin(Geometry::new(4, 3))] {
            let pool = inter_stage_channels(&net);
            assert!(!pool.is_empty());
            assert!(pool.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
            for &c in &pool {
                let d = net.channel(c);
                assert!(d.src.switch().is_some() && d.dst.switch().is_some());
            }
            let terminals = net.num_channels() - pool.len();
            // Every node has exactly one injection and one ejection channel.
            assert_eq!(terminals, 2 * net.geometry.nodes() as usize);
        }
    }
}
