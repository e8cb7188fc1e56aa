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
//! occupancy-scaled scheduling and the determinism contract); [`stats`]
//! for the measurement machinery. The `reference-engine` feature exposes
//! [`reference`], the frozen scan-everything implementation used as a
//! differential-testing oracle.
//!
//! Sweep-style callers should use the compile-once pipeline:
//! [`CompiledNet`] (immutable network + routing table + transmit order)
//! plus a reusable [`EngineState`] — see the [`engine`] module header.
//! The free functions [`run_simulation`] / [`run_scripted`] /
//! [`run_chained`] remain the one-shot API and produce bit-identical
//! reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod chaos;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod lockstep;
#[cfg(feature = "reference-engine")]
pub mod reference;
pub mod stats;
pub mod trace;

pub use chaos::{ChaosSchedule, ChaosTarget};
pub use config::{Delivery, EngineConfig, RunBudget, SimReport, TransmitOrder, CYCLE_US};
pub use engine::{
    run_chained, run_scripted, run_simulation, with_pooled_state, Chain, ChainedMsg, CompiledNet,
    EngineState, Script, ScriptedMsg,
};
pub use error::{BudgetKind, PartialReport, SimError, StallDiagnostic, StalledPacket};
pub use fault::CompiledFaults;
pub use lockstep::LockstepState;
pub use trace::{Trace, TraceEvent};
