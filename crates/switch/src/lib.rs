//! # minnet-switch
//!
//! A shell, kept only for the frozen benchmark: `benchmark/src/replay.rs`
//! times [`Arbiter::pick`] through this crate's name. It compiles the
//! reference engine's arbiter (`minnet_sim::reference::arbiter`, feature
//! `reference-engine`) from that one source file, so the harness never
//! links `minnet-sim` with the oracle. No workspace crate depends on it;
//! ROADMAP 2(d) deletes it once the harness stops importing it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[path = "../../sim/src/reference/arbiter.rs"]
mod arbiter;

pub use arbiter::{Arbiter, ArbiterKind};
