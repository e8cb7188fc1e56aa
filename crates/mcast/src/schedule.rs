//! Multicast schedules as trees of chained unicasts.

use minnet_sim::{
    Chain, ChainedMsg, CompiledNet, EngineConfig, EngineState, SimError, SimReport, Traffic,
};
use minnet_topology::NetworkGraph;
use std::sync::Arc;

/// A multicast schedule: the chained unicasts realising one multicast.
#[derive(Clone, Debug)]
pub struct McastSchedule {
    /// The source node.
    pub source: u32,
    /// The destination set, in schedule order.
    pub destinations: Vec<u32>,
    /// The chained messages (parents precede children).
    pub msgs: Vec<ChainedMsg>,
}

impl McastSchedule {
    /// Number of unicast messages (= number of destinations).
    pub fn message_count(&self) -> usize {
        self.msgs.len()
    }

    /// The depth of the dependency tree (sequential chain = 1 for the
    /// root sends; binomial ≈ log₂).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.msgs.len()];
        let mut max = 0;
        for (i, m) in self.msgs.iter().enumerate() {
            depth[i] = match m.after {
                None => 1,
                Some(p) => depth[p] + 1,
            };
            max = max.max(depth[i]);
        }
        max
    }
}

fn check_args(source: u32, destinations: &[u32]) {
    assert!(!destinations.is_empty(), "multicast needs destinations");
    assert!(
        !destinations.contains(&source),
        "the source is not a destination"
    );
    let mut sorted: Vec<u32> = destinations.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), destinations.len(), "duplicate destinations");
}

/// The source sends to each destination itself, back to back.
pub fn sequential(source: u32, destinations: &[u32], len: u32) -> McastSchedule {
    check_args(source, destinations);
    let msgs = destinations
        .iter()
        .map(|&d| ChainedMsg {
            src: source,
            dst: d,
            len,
            earliest: 0,
            after: None, // the one-port source serializes them FCFS
        })
        .collect();
    McastSchedule {
        source,
        destinations: destinations.to_vec(),
        msgs,
    }
}

/// Recursive-halving (binomial-tree) multicast over the given destination
/// order: the sender delivers to the head of the upper half, then both
/// halves proceed in parallel.
pub fn binomial(source: u32, destinations: &[u32], len: u32) -> McastSchedule {
    check_args(source, destinations);
    let mut msgs: Vec<ChainedMsg> = Vec::with_capacity(destinations.len());
    // recurse(sender, sender's enabling message, destinations to cover)
    fn recurse(
        sender: u32,
        enabler: Option<usize>,
        dsts: &[u32],
        len: u32,
        msgs: &mut Vec<ChainedMsg>,
    ) {
        if dsts.is_empty() {
            return;
        }
        let mid = dsts.len() / 2;
        let leader = dsts[mid];
        let idx = msgs.len();
        msgs.push(ChainedMsg {
            src: sender,
            dst: leader,
            len,
            earliest: 0,
            after: enabler,
        });
        // The new leader covers the upper half (minus itself) …
        recurse(leader, Some(idx), &dsts[mid + 1..], len, msgs);
        // … while the original sender continues with the lower half.
        recurse(sender, enabler, &dsts[..mid], len, msgs);
    }
    recurse(source, None, destinations, len, &mut msgs);
    McastSchedule {
        source,
        destinations: destinations.to_vec(),
        msgs,
    }
}

/// [`binomial`] over the address-sorted destination list: on a fat tree
/// the sorted halves align with subtrees, keeping the many late rounds
/// local (short turnaround paths, disjoint channels).
pub fn binomial_by_address(source: u32, destinations: &[u32], len: u32) -> McastSchedule {
    let mut sorted: Vec<u32> = destinations.to_vec();
    sorted.sort_unstable();
    binomial(source, &sorted, len)
}

/// Outcome of simulating one multicast.
#[derive(Clone, Debug)]
pub struct McastOutcome {
    /// The full engine report (per-unicast deliveries are tagged with the
    /// schedule's message indices).
    pub report: SimReport,
    /// Cycle at which the last destination received its tail flit.
    pub completion: u64,
}

/// Simulate a multicast schedule on an idle network. `overhead` is the
/// software latency (cycles) a relay node needs between receiving the
/// message and starting its own sends.
pub fn run_multicast(
    net: &NetworkGraph,
    schedule: &McastSchedule,
    overhead: u64,
    cfg: &EngineConfig,
) -> Result<McastOutcome, SimError> {
    let compiled = CompiledNet::new(Arc::new(net.clone()), cfg.clone())?;
    let chain = Chain::compile(net.geometry, &schedule.msgs, overhead)?;
    let mut st = EngineState::new();
    let report = compiled.run(Traffic::Chain(&chain), None, cfg.seed, &mut st)?;
    let deliveries = report.deliveries.as_ref().ok_or(SimError::Internal {
        what: "chained runs always record deliveries",
    })?;
    if deliveries.len() != schedule.msgs.len() {
        return Err(SimError::Config(format!(
            "only {} of {} multicast messages delivered within the horizon",
            deliveries.len(),
            schedule.msgs.len()
        )));
    }
    let completion = deliveries.iter().map(|d| d.done_time).max().unwrap_or(0);
    Ok(McastOutcome { report, completion })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnet_topology::{build_bmin, build_unidir, Geometry, UnidirKind};
    use std::collections::BTreeSet;

    fn cfg() -> EngineConfig {
        EngineConfig {
            warmup: 0,
            measure: 2_000_000,
            ..EngineConfig::default()
        }
    }

    fn covered(s: &McastSchedule) -> BTreeSet<u32> {
        s.msgs.iter().map(|m| m.dst).collect()
    }

    #[test]
    fn schedules_cover_every_destination_once() {
        let dsts: Vec<u32> = (1..16).collect();
        for s in [
            sequential(0, &dsts, 32),
            binomial(0, &dsts, 32),
            binomial_by_address(0, &dsts, 32),
        ] {
            assert_eq!(s.message_count(), dsts.len());
            assert_eq!(covered(&s), dsts.iter().copied().collect());
        }
    }

    #[test]
    fn senders_have_received_first() {
        // Every message's source is either the root or the destination of
        // its enabling message.
        let dsts: Vec<u32> = (1..32).collect();
        let s = binomial(0, &dsts, 16);
        for m in &s.msgs {
            match m.after {
                None => assert_eq!(m.src, 0),
                Some(p) => assert_eq!(m.src, s.msgs[p].dst),
            }
        }
    }

    #[test]
    fn depths() {
        let dsts: Vec<u32> = (1..16).collect();
        assert_eq!(sequential(0, &dsts, 8).depth(), 1);
        // 15 destinations: binomial reaches them in ceil(log2(16)) = 4
        // rounds.
        assert_eq!(binomial(0, &dsts, 8).depth(), 4);
        let one = binomial(0, &[5], 8);
        assert_eq!(one.depth(), 1);
    }

    #[test]
    fn binomial_beats_sequential_broadcast() {
        let g = Geometry::new(4, 3);
        let len = 128u32;
        let dsts: Vec<u32> = (1..64).collect();
        for net in [build_unidir(g, UnidirKind::Cube, 2), build_bmin(g)] {
            let seq = run_multicast(&net, &sequential(0, &dsts, len), 10, &cfg()).unwrap();
            let bin =
                run_multicast(&net, &binomial_by_address(0, &dsts, len), 10, &cfg()).unwrap();
            assert!(
                bin.completion * 3 < seq.completion,
                "binomial {} vs sequential {}",
                bin.completion,
                seq.completion
            );
        }
    }

    #[test]
    fn relays_respect_software_overhead() {
        // With a huge overhead, total time is dominated by depth × overhead.
        let g = Geometry::new(2, 3);
        let net = build_unidir(g, UnidirKind::Cube, 1);
        let dsts: Vec<u32> = (1..8).collect();
        let s = binomial(0, &dsts, 8);
        let small = run_multicast(&net, &s, 0, &cfg()).unwrap().completion;
        let big = run_multicast(&net, &s, 1_000, &cfg()).unwrap().completion;
        let depth = s.depth() as u64;
        assert!(big >= (depth - 1) * 1_000, "big {} depth {}", big, depth);
        assert!(big <= small + depth * 1_000 + 50);
    }

    #[test]
    fn address_order_helps_on_the_fat_tree() {
        // Broadcast on the BMIN: address-sorted halving keeps late rounds
        // inside subtrees; a deliberately interleaved order forces long
        // cross-tree paths in every round.
        let g = Geometry::new(4, 3);
        let net = build_bmin(g);
        let len = 256u32;
        let sorted: Vec<u32> = (1..64).collect();
        // Bit-reversed-ish interleaving: maximal spread across subtrees.
        let mut scattered = sorted.clone();
        scattered.sort_by_key(|&d| (d % 4, d / 4));
        let good = run_multicast(&net, &binomial(0, &sorted, len), 10, &cfg())
            .unwrap()
            .completion;
        let bad = run_multicast(&net, &binomial(0, &scattered, len), 10, &cfg())
            .unwrap()
            .completion;
        assert!(
            good <= bad,
            "address order ({good}) should not lose to scattered order ({bad})"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate destinations")]
    fn rejects_duplicates() {
        let _ = binomial(0, &[1, 2, 1], 8);
    }

    #[test]
    #[should_panic(expected = "not a destination")]
    fn rejects_source_in_destinations() {
        let _ = sequential(3, &[1, 3], 8);
    }
}
