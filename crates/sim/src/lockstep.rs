//! Packed per-replication state for lockstep replication fleets.
//!
//! A replicated sweep runs `R` independent seeds of the same compiled
//! network. Run scalar, each replication re-walks the shared read-only
//! artifacts — routing table, transmit order, channel table — from a
//! cold cache, and pays the per-cycle sweep bookkeeping alone. The
//! lockstep path (see `CompiledNet::run_poisson_lockstep`) instead
//! drives the `R` lanes as one *fleet*: every live lane executes the
//! same simulated cycle before any lane starts the next, so the shared
//! artifacts stay hot across the whole fleet and the allocate/transmit
//! scans amortize R-fold.
//!
//! [`LockstepState`] is the fleet-side analogue of
//! [`EngineState`](crate::EngineState): one resettable engine state per
//! lane, grown on demand and reused — allocations included — across
//! fleets, exactly like the sweep layer's per-worker state pool.
//!
//! Determinism: each lane owns its state and its seed; the fleet never
//! lets lanes interact. Every lane's report is **bit-identical** to the
//! scalar run of the same `(network, config, seed)` — pinned by the
//! scalar≡lockstep differential suite in `tests/engine_equivalence.rs`
//! and the replication-count proptest in `tests/compiled_pipeline.rs`.
//!
//! Every lane runs the engine's one cycle body, so the fleet composes
//! with the word-parallel sweeps: they speed each lane, the fleet
//! amortizes the shared compiled artifacts across lanes.

use crate::engine::EngineState;

/// Packed per-replication engine states for a lockstep fleet: lane `r`
/// of the fleet runs on `lanes[r]`. Reuse one `LockstepState` across
/// fleets (sweep workers hold one each) to keep every lane's
/// allocations warm, the same contract as reusing an
/// [`EngineState`](crate::EngineState) across scalar runs.
#[derive(Debug, Default)]
pub struct LockstepState {
    pub(crate) lanes: Vec<EngineState>,
}

impl LockstepState {
    /// An empty state pool; lanes are allocated on first use.
    pub fn new() -> LockstepState {
        LockstepState { lanes: Vec::new() }
    }

    /// How many lane states this pool currently holds.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The first `n` lane states, growing the pool as needed. Each
    /// state resets in place on run entry, so stale contents are
    /// harmless — this is an allocation pool, not a cache of results.
    pub(crate) fn lane_block(&mut self, n: usize) -> &mut [EngineState] {
        while self.lanes.len() < n {
            self.lanes.push(EngineState::new());
        }
        &mut self.lanes[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_block_grows_and_reuses() {
        let mut ls = LockstepState::new();
        assert_eq!(ls.lane_count(), 0);
        assert_eq!(ls.lane_block(3).len(), 3);
        assert_eq!(ls.lane_count(), 3);
        // Asking for fewer lanes reuses the pool without shrinking it.
        assert_eq!(ls.lane_block(2).len(), 2);
        assert_eq!(ls.lane_count(), 3);
        assert_eq!(ls.lane_block(5).len(), 5);
        assert_eq!(ls.lane_count(), 5);
    }
}
