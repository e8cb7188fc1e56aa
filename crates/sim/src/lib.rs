//! # minnet-sim
//!
//! The flit-level, cycle-based wormhole simulation engine behind the §5
//! experiments of Ni, Gui and Moore's "Performance Evaluation of
//! Switch-Based Wormhole Networks".
//!
//! The engine consumes a static [`minnet_topology::NetworkGraph`] (TMIN /
//! DMIN / VMIN / BMIN), a [`minnet_traffic::Workload`] (or a deterministic
//! script), and an [`EngineConfig`]; it produces a [`SimReport`] with
//! offered/accepted throughput, latency statistics with batch-means
//! confidence intervals, and source-queue sustainability (§5's
//! 100-message criterion).
//!
//! See [`engine`] for the precise cycle semantics (including the
//! occupancy-scaled scheduling and the determinism contract) — its code
//! is one private module a cycle phase, each owning the part of the run
//! state it mutates; [`stats`] for the measurement machinery. The
//! `reference-engine` feature exposes `reference`, the frozen
//! scan-everything implementation used as a differential-testing
//! oracle; the checks the engine does not carry — the switch ablations
//! (build-order transmission, round-robin lane choice, winner-holds VC
//! multiplexing), cycle-by-cycle stepping through quiescent stretches,
//! the Fig. 2 crossbar audit — live only there, and so does the paper's
//! §5 switch model they run on (flit FIFOs, arbiters, VC multiplexers,
//! the crossbar).
//!
//! A run has one entry, [`CompiledNet::run`]: a compiled network
//! (immutable graph + routing table + ejection mask) runs a [`Traffic`]
//! source — a Poisson workload, a [`Script`] or a [`Chain`] — under an
//! optional fault schedule, on a caller-owned, reusable [`EngineState`];
//! see the [`engine`] module header. It is the only entry (watched:
//! [`CompiledNet::run_observed`], [`trace`]): a one-shot caller compiles
//! the network and passes a fresh state. (The oracle keeps its own
//! one-shot `run_simulation` / `run_scripted` / `run_chained`, which take
//! the switch and whether to observe as arguments.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod chaos;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
#[cfg(feature = "reference-engine")]
pub mod reference;
pub mod stats;
pub mod trace;

pub use chaos::{ChaosSchedule, ChaosTarget};
pub use config::{Delivery, EngineConfig, RunBudget, SimReport, CYCLE_US};
pub use engine::{
    Chain, ChainedMsg, CompiledNet, EngineState, Script, ScriptedMsg, Traffic,
};
pub use error::{BudgetKind, PartialReport, SimError, StallDiagnostic, StalledPacket};
pub use fault::CompiledFaults;
pub use trace::{Trace, TraceEvent};

/// [`EngineState`] under its old fleet name, for `benchmark/src/replay.rs`
/// only; ROADMAP 2(d) deletes it with [`CompiledNet::run_poisson_lockstep`].
pub type LockstepState = EngineState;
