//! # minnet-switch
//!
//! The switch model of the reference engine (`minnet_sim::reference`,
//! feature `reference-engine`) — the differential oracle, not the engine
//! the binaries run, which hard-wires the paper's switch:
//!
//! * [`buffer::FlitFifo`] — the flit buffer the paper attaches to every
//!   (virtual) channel (§5: "Each input channel in a switch has a buffer
//!   the size of a single flit"), `buffer_depth` flits deep;
//! * [`arbiter::Arbiter`] — random and round-robin arbitration among
//!   competing requests (the paper specifies *random* choice among free
//!   lanes/forward channels; round-robin is kept as an ablation);
//! * [`vc::VcMux`] — flit-level multiplexing of one physical channel among
//!   virtual channels (§2.2: fair round-robin so `k` active VCs each get
//!   `W/k` bandwidth; a winner-holds policy is kept as an ablation);
//! * [`crossbar::Crossbar`] — explicit crossbar connection state enforcing
//!   the connection-legality rules of Fig. 2 (no `r → r` connection, no
//!   same-port turnaround), which the oracle audits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod buffer;
pub mod crossbar;
pub mod vc;

pub use arbiter::{Arbiter, ArbiterKind};
pub use buffer::{FlitFifo, FlitRef};
pub use crossbar::{Crossbar, CrossbarError};
pub use vc::{VcMux, VcMuxPolicy};
