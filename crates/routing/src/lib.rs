//! # minnet-routing
//!
//! Routing layer for the four switch-based wormhole networks of Ni, Gui and
//! Moore: destination-tag routing for the unidirectional MINs (§2),
//! turnaround routing for the bidirectional butterfly MIN (§3.1, Fig. 7),
//! shortest-path enumeration (Theorem 1), and deadlock analysis on the
//! channel-dependency graph (§3.2.1).
//!
//! The central type is [`RouteLogic`]: given a header flit that has just
//! arrived at a switch input, it lists the output channels the worm may
//! request next. The simulation engine (`minnet-sim`) applies an allocation
//! policy (random free lane / VC) on top of these candidates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod logic;
pub mod paths;
pub mod table;
pub mod turnaround;

pub use deadlock::{dependency_graph, find_cycle, masked_dependency_graph, DependencyRule};
pub use logic::RouteLogic;
pub use table::{Route, RouteTable};
pub use paths::{enumerate_paths, paths_share_channel, shortest_path_count, shortest_path_length};
pub use turnaround::{turnaround_action, TurnaroundAction};
