//! # minnet-topology
//!
//! Topology layer for the switch-based wormhole-network study of Ni, Gui and
//! Moore ("Performance Evaluation of Switch-Based Wormhole Networks").
//!
//! This crate owns everything that is *static* about a network:
//!
//! * k-ary, n-digit node addresses and the [`Geometry`] (`N = k^n`) they live
//!   in ([`address`]);
//! * the interconnection permutations of the paper's Definitions 1 and 2 —
//!   the i-th k-ary butterfly `β_i^k` and the perfect k-shuffle `σ`
//!   ([`permutation`]);
//! * k-ary m-cube, base-cube and binary-cube address sets of Definitions 5
//!   and 6 ([`cube`]);
//! * a network-graph model of switches, ports, lanes and unidirectional
//!   channels ([`graph`]);
//! * builders for the four networks of the paper: cube and butterfly
//!   unidirectional MINs with arbitrary channel dilation (TMIN / DMIN /
//!   VMIN share one graph — virtual channels are a simulation-time concept),
//!   and the bidirectional butterfly MIN ([`unidir`], [`bmin`]);
//! * the fat-tree view of the BMIN ([`fattree`], §3.3 of the paper) and
//!   topological-equivalence utilities ([`equivalence`], Fig. 12);
//! * deterministic fault plans — scheduled link / lane / switch failures
//!   compiled into per-epoch dead-lane masks ([`fault`]).
//!
//! Nothing in this crate knows about flits, packets or time; the dynamic
//! wormhole model lives in `minnet-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bmin;
pub mod cube;
pub mod equivalence;
pub mod fattree;
pub mod fault;
pub mod graph;
pub mod permutation;
pub mod unidir;

pub use address::{Divisor, Geometry, NodeAddr, Radix};
pub use bmin::build_bmin;
pub use fault::{
    inter_stage_channels, splitmix64, Fault, FaultEpoch, FaultPlan, FaultPlanError,
    FaultSchedule, FaultTarget,
};
pub use cube::{BitCube, CubeSpec, DigitSpec};
pub use graph::{
    ChannelDesc, ChannelId, Direction, Endpoint, LevelPositions, NetworkGraph, NetworkKind, NodeId,
    PortSpan, Side, SwitchDesc, SwitchId,
};
pub use permutation::Perm;
pub use unidir::{build_unidir, UnidirKind};
